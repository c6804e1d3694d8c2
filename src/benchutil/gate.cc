#include "gate.h"

#include <cstdio>
#include <cstdlib>

namespace fusion::benchutil {

bool
parseGateFlags(int argc, char **argv, GateFlags &flags,
               std::initializer_list<std::pair<const char *, bool *>> switches)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool matched = false;
        for (const auto &[name, value] : switches) {
            if (arg == name) {
                *value = true;
                matched = true;
            }
        }
        if (matched)
            continue;
        if (arg == "--quick")
            flags.quick = true;
        else if (arg.rfind("--out=", 0) == 0)
            flags.out = arg.substr(6);
        else if (arg.rfind("--check=", 0) == 0)
            flags.baseline = arg.substr(8);
        else if (arg.rfind("--trace-out=", 0) != 0 &&
                 arg.rfind("--metrics-out=", 0) != 0 &&
                 arg.rfind("--timeseries-out=", 0) != 0) {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

void
writeBenchJson(const std::string &path, const std::string &bench,
               const std::vector<std::pair<std::string, std::string>> &fields,
               const Metrics &metrics)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(2);
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench.c_str());
    for (const auto &[key, value] : fields)
        std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    std::fprintf(f, "  \"metrics\": {\n");
    for (size_t i = 0; i < metrics.size(); ++i)
        std::fprintf(f, "    \"%s\": %.6g%s\n", metrics[i].first.c_str(),
                     metrics[i].second,
                     i + 1 < metrics.size() ? "," : "");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
}

bool
readBenchMetrics(const std::string &path, std::map<std::string, double> &out)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    size_t obj = text.find("\"metrics\"");
    if (obj == std::string::npos)
        return true;
    obj = text.find('{', obj);
    size_t end_obj = text.find('}', obj);
    if (obj == std::string::npos || end_obj == std::string::npos)
        return true;
    size_t cur = obj;
    while (true) {
        size_t q0 = text.find('"', cur);
        if (q0 == std::string::npos || q0 > end_obj)
            break;
        size_t q1 = text.find('"', q0 + 1);
        size_t colon = text.find(':', q1);
        if (q1 == std::string::npos || colon == std::string::npos ||
            colon > end_obj)
            break;
        char *end = nullptr;
        double v = std::strtod(text.c_str() + colon + 1, &end);
        if (end == text.c_str() + colon + 1)
            break;
        out[text.substr(q0 + 1, q1 - q0 - 1)] = v;
        cur = static_cast<size_t>(end - text.c_str());
    }
    return true;
}

int
checkMetrics(const std::map<std::string, double> &baseline,
             const Metrics &current, double tolerance)
{
    std::map<std::string, double> have(current.begin(), current.end());
    int failures = 0;
    for (const auto &[name, want] : baseline) {
        double floor = want * (1.0 - tolerance);
        auto it = have.find(name);
        if (it == have.end()) {
            std::printf("  check %-30s %10s >= %10.4f MISSING\n",
                        name.c_str(), "-", floor);
            ++failures;
            continue;
        }
        bool ok = it->second >= floor;
        std::printf("  check %-30s %10.4f >= %10.4f %s\n", name.c_str(),
                    it->second, floor, ok ? "ok" : "REGRESSED");
        failures += ok ? 0 : 1;
    }
    return failures;
}

int
writeAndCheck(const GateFlags &flags, const std::string &bench,
              const std::vector<std::pair<std::string, std::string>> &fields,
              const Metrics &metrics, double tolerance)
{
    writeBenchJson(flags.out, bench, fields, metrics);
    std::printf("wrote %s\n", flags.out.c_str());
    if (flags.baseline.empty())
        return 0;
    std::map<std::string, double> baseline;
    if (!readBenchMetrics(flags.baseline, baseline)) {
        std::fprintf(stderr, "cannot read baseline %s\n",
                     flags.baseline.c_str());
        std::exit(2);
    }
    int failures = checkMetrics(baseline, metrics, tolerance);
    if (failures > 0)
        std::fprintf(stderr,
                     "%d %s metric(s) missing or regressed more than "
                     "%.0f%% vs %s\n",
                     failures, bench.c_str(), tolerance * 100.0,
                     flags.baseline.c_str());
    else
        std::printf("all %zu %s metrics within %.0f%% of %s\n",
                    baseline.size(), bench.c_str(), tolerance * 100.0,
                    flags.baseline.c_str());
    return failures;
}

} // namespace fusion::benchutil
