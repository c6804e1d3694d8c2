/**
 * @file
 * fusion-lint self-tests. The bad_* fixtures under tools/testdata tag
 * every offending line with `// BAD: <rule>`; the tests assert the
 * linter reports exactly those (line, rule) pairs — no misses, no
 * false positives. A final suite scans the real src/, bench/ and
 * tests/ trees and requires them clean, which is the repo's
 * determinism contract in executable form.
 */
#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fusion::lint {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture: " << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
fixturePath(const std::string &name)
{
    return (fs::path(FUSION_LINT_TESTDATA) / name).generic_string();
}

/** (line, rule) pairs from `// BAD: <rule>` markers in a fixture. */
std::set<std::pair<size_t, std::string>>
expectedFromMarkers(const std::string &content)
{
    std::set<std::pair<size_t, std::string>> expected;
    std::istringstream in(content);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t at = line.find("// BAD: ");
        if (at == std::string::npos)
            continue;
        std::string rule = line.substr(at + 8);
        size_t end = rule.find_first_of(" \t");
        if (end != std::string::npos)
            rule.resize(end);
        expected.emplace(lineno, rule);
    }
    return expected;
}

std::set<std::pair<size_t, std::string>>
actualFromFindings(const std::vector<Finding> &findings)
{
    std::set<std::pair<size_t, std::string>> actual;
    for (const Finding &f : findings)
        actual.emplace(f.line, f.rule);
    return actual;
}

/** Lints a fixture and asserts findings == its BAD markers. */
void
checkFixture(const std::string &name)
{
    const std::string path = fixturePath(name);
    const std::string content = readFile(path);
    FileReport report = lintSource(path, content, Options::defaults());
    EXPECT_EQ(actualFromFindings(report.findings),
              expectedFromMarkers(content))
        << "fixture " << name;
    EXPECT_EQ(report.suppressed, 0u) << "fixture " << name;
}

TEST(LintFixtures, Wallclock) { checkFixture("bad_wallclock.cc"); }
TEST(LintFixtures, UnseededRandom) { checkFixture("bad_random.cc"); }
TEST(LintFixtures, UnorderedIter) { checkFixture("bad_unordered_iter.cc"); }
TEST(LintFixtures, PointerFormat) { checkFixture("bad_pointer_format.cc"); }
TEST(LintFixtures, RawMutex) { checkFixture("bad_raw_mutex.cc"); }
TEST(LintFixtures, RawAtomic) { checkFixture("bad_raw_atomic.cc"); }

TEST(LintFixtures, CleanFileHasNoFindings)
{
    const std::string path = fixturePath("good_clean.cc");
    FileReport report =
        lintSource(path, readFile(path), Options::defaults());
    EXPECT_TRUE(report.findings.empty())
        << report.findings.size() << " unexpected finding(s), first: "
        << (report.findings.empty() ? "" : report.findings[0].message);
    EXPECT_EQ(report.suppressed, 0u);
}

TEST(LintFixtures, AllowCommentsSuppress)
{
    const std::string path = fixturePath("good_suppressed.cc");
    FileReport report =
        lintSource(path, readFile(path), Options::defaults());
    EXPECT_TRUE(report.findings.empty())
        << "first leak: "
        << (report.findings.empty() ? "" : report.findings[0].message);
    // wallclock + unseeded-random + unordered-iter, one each.
    EXPECT_EQ(report.suppressed, 3u);
}

TEST(LintRules, RuleNamesSortedAndComplete)
{
    const auto &names = ruleNames();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(names, (std::vector<std::string>{
                         "pointer-format", "raw-atomic", "raw-mutex",
                         "unordered-iter", "unseeded-random",
                         "wallclock"}));
}

TEST(LintRules, AllowfileSuppressesFileWide)
{
    const std::string src = "// fusion-lint: allowfile(wallclock)\n"
                            "auto a = std::chrono::steady_clock::now();\n"
                            "auto b = std::chrono::system_clock::now();\n"
                            "std::mutex m;\n";
    FileReport report = lintSource("x.cc", src, Options::defaults());
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "raw-mutex");
    EXPECT_EQ(report.findings[0].line, 4u);
    EXPECT_EQ(report.suppressed, 2u);
}

TEST(LintRules, AllowAllWildcard)
{
    const std::string src = "std::mutex m; // fusion-lint: allow(all)\n";
    FileReport report = lintSource("x.cc", src, Options::defaults());
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.suppressed, 1u);
}

TEST(LintRules, PathAllowlistExemptsShim)
{
    const std::string src = "auto t = std::chrono::steady_clock::now();\n";
    FileReport shim = lintSource("src/common/walltime.cc", src,
                                 Options::defaults());
    EXPECT_TRUE(shim.findings.empty());
    FileReport other =
        lintSource("src/store/object_store.cc", src, Options::defaults());
    ASSERT_EQ(other.findings.size(), 1u);
    EXPECT_EQ(other.findings[0].rule, "wallclock");
}

TEST(LintRules, MutexWrapperHeaderIsExempt)
{
    const std::string src = "std::mutex m_;\nstd::condition_variable cv_;\n";
    FileReport report =
        lintSource("src/common/mutex.h", src, Options::defaults());
    EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, MetricsRegistryAtomicsAreExempt)
{
    const std::string src = "std::atomic<uint64_t> v{0};\n";
    FileReport registry =
        lintSource("src/obs/metrics.h", src, Options::defaults());
    EXPECT_TRUE(registry.findings.empty());
    FileReport pool =
        lintSource("src/common/thread_pool.h", src, Options::defaults());
    EXPECT_TRUE(pool.findings.empty());
    FileReport other =
        lintSource("src/store/object_store.cc", src, Options::defaults());
    ASSERT_EQ(other.findings.size(), 1u);
    EXPECT_EQ(other.findings[0].rule, "raw-atomic");
}

TEST(LintRules, CrossFileUnorderedMember)
{
    // Member declared in a header, iterated in a .cc: only the extra
    // names passed by the two-pass CLI make the iteration visible.
    const std::string header =
        "struct S { std::unordered_map<int, int> table_; };\n";
    const std::string source = "void f(const S &s) {\n"
                               "    for (auto &kv : s.table_) use(kv);\n"
                               "}\n";
    auto names = collectUnorderedNames(header);
    ASSERT_EQ(names, std::vector<std::string>{"table_"});

    FileReport without = lintSource("s.cc", source, Options::defaults());
    EXPECT_TRUE(without.findings.empty());

    FileReport with =
        lintSource("s.cc", source, Options::defaults(), names);
    ASSERT_EQ(with.findings.size(), 1u);
    EXPECT_EQ(with.findings[0].rule, "unordered-iter");
    EXPECT_EQ(with.findings[0].line, 2u);
}

TEST(LintRules, CollectUnorderedNamesHandlesDeclForms)
{
    const std::string src =
        "std::unordered_map<std::string, std::vector<int>> deep;\n"
        "const std::unordered_set<int> &ref = other;\n"
        "std::unordered_map<int, int> *ptr = nullptr;\n"
        "std::unordered_map<int, int> makeMap();\n" // function: skipped
        "using Alias = std::unordered_map<int, int>;\n"; // no var name
    auto names = collectUnorderedNames(src);
    EXPECT_EQ(names,
              (std::vector<std::string>{"deep", "ptr", "ref"}));
}

TEST(LintRules, CommentsAndStringsNeverMatch)
{
    const std::string src =
        "// std::mutex rand() time(0) steady_clock %p\n"
        "/* std::random_device */\n"
        "const char *s = \"std::mutex time() rand()\";\n"
        "const char *r = R\"(std::mutex %x)\";\n";
    FileReport report = lintSource("x.cc", src, Options::defaults());
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.suppressed, 0u);
}

TEST(LintReport, JsonShapeAndEscaping)
{
    std::vector<Finding> findings = {
        {"b.cc", 2, "wallclock", "say \"hi\""},
        {"a.cc", 7, "raw-mutex", "msg"},
    };
    std::string json = reportJson(findings, 42, 3);
    // Sorted by file: a.cc first despite input order.
    size_t a = json.find("a.cc"), b = json.find("b.cc");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    EXPECT_LT(a, b);
    EXPECT_NE(json.find("\"files_scanned\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"suppressed\": 3"), std::string::npos);
    EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
}

/**
 * The teeth: the real tree must lint clean. Mirrors the CLI's
 * two-pass flow so header-declared unordered members are tracked
 * across files.
 */
TEST(LintRepo, SrcBenchTestsAreClean)
{
    const fs::path root(FUSION_LINT_SOURCE_ROOT);
    std::vector<std::string> files;
    for (const char *dir : {"src", "bench", "tests"}) {
        fs::path d = root / dir;
        ASSERT_TRUE(fs::is_directory(d)) << d;
        for (const auto &entry : fs::recursive_directory_iterator(d)) {
            if (!entry.is_regular_file())
                continue;
            std::string ext = entry.path().extension().string();
            if (ext == ".h" || ext == ".cc" || ext == ".cpp")
                files.push_back(entry.path().generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    ASSERT_GT(files.size(), 50u) << "scan set suspiciously small";

    std::vector<std::pair<std::string, std::string>> contents;
    std::vector<std::string> unorderedNames;
    for (const std::string &file : files) {
        contents.emplace_back(file, readFile(file));
        for (auto &n : collectUnorderedNames(contents.back().second))
            unorderedNames.push_back(std::move(n));
    }
    std::sort(unorderedNames.begin(), unorderedNames.end());
    unorderedNames.erase(
        std::unique(unorderedNames.begin(), unorderedNames.end()),
        unorderedNames.end());

    const Options options = Options::defaults();
    std::vector<Finding> leaks;
    for (const auto &[file, content] : contents) {
        FileReport report =
            lintSource(file, content, options, unorderedNames);
        for (auto &f : report.findings)
            leaks.push_back(std::move(f));
    }
    std::string msg;
    for (const Finding &f : leaks)
        msg += f.file + ":" + std::to_string(f.line) + ": [" + f.rule +
               "] " + f.message + "\n";
    EXPECT_TRUE(leaks.empty()) << msg;
}

/**
 * The coordinator cache is determinism-critical (its hit sequence must
 * be bit-identical across thread counts), so it gets an explicit
 * clean-scan expectation on top of the recursive src/ sweep above.
 */
TEST(LintRepo, CacheModuleIsClean)
{
    const fs::path dir = fs::path(FUSION_LINT_SOURCE_ROOT) / "src/cache";
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::vector<std::string> files;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::string ext = entry.path().extension().string();
        if (ext == ".h" || ext == ".cc" || ext == ".cpp")
            files.push_back(entry.path().generic_string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_GT(files.size(), 1u) << "cache module scan set empty";

    std::vector<std::string> unorderedNames;
    std::vector<std::pair<std::string, std::string>> contents;
    for (const std::string &file : files) {
        contents.emplace_back(file, readFile(file));
        for (auto &n : collectUnorderedNames(contents.back().second))
            unorderedNames.push_back(std::move(n));
    }
    std::sort(unorderedNames.begin(), unorderedNames.end());

    std::string msg;
    size_t leaks = 0;
    for (const auto &[file, content] : contents) {
        FileReport report = lintSource(file, content,
                                       Options::defaults(),
                                       unorderedNames);
        for (const Finding &f : report.findings) {
            ++leaks;
            msg += f.file + ":" + std::to_string(f.line) + ": [" +
                   f.rule + "] " + f.message + "\n";
        }
    }
    EXPECT_EQ(leaks, 0u) << msg;
}

/** The rewritten admission-window scheduler must stay lint-clean: it
 *  is the repo's densest callback/lifetime code, exactly where the
 *  lint rules earn their keep. */
TEST(LintRepo, SchedModuleIsClean)
{
    const fs::path dir = fs::path(FUSION_LINT_SOURCE_ROOT) / "src/sched";
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::vector<std::string> files;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::string ext = entry.path().extension().string();
        if (ext == ".h" || ext == ".cc" || ext == ".cpp")
            files.push_back(entry.path().generic_string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_GT(files.size(), 1u) << "sched module scan set empty";

    std::vector<std::string> unorderedNames;
    std::vector<std::pair<std::string, std::string>> contents;
    for (const std::string &file : files) {
        contents.emplace_back(file, readFile(file));
        for (auto &n : collectUnorderedNames(contents.back().second))
            unorderedNames.push_back(std::move(n));
    }
    std::sort(unorderedNames.begin(), unorderedNames.end());

    std::string msg;
    size_t leaks = 0;
    for (const auto &[file, content] : contents) {
        FileReport report = lintSource(file, content,
                                       Options::defaults(),
                                       unorderedNames);
        for (const Finding &f : report.findings) {
            ++leaks;
            msg += f.file + ":" + std::to_string(f.line) + ": [" +
                   f.rule + "] " + f.message + "\n";
        }
    }
    EXPECT_EQ(leaks, 0u) << msg;
}

/** The delta lifecycle (append log, background folds, re-stripe
 *  policy) mutates store state from DES callbacks — the same lifetime
 *  shape the sched rules police — so it gets its own clean-scan gate. */
TEST(LintRepo, LifecycleModuleIsClean)
{
    const fs::path dir = fs::path(FUSION_LINT_SOURCE_ROOT) / "src/store";
    std::vector<std::string> files;
    for (const char *name : {"delta_lifecycle.cc", "delta_lifecycle.h"}) {
        ASSERT_TRUE(fs::is_regular_file(dir / name)) << dir / name;
        files.push_back((dir / name).generic_string());
    }

    std::vector<std::string> unorderedNames;
    std::vector<std::pair<std::string, std::string>> contents;
    for (const std::string &file : files) {
        contents.emplace_back(file, readFile(file));
        for (auto &n : collectUnorderedNames(contents.back().second))
            unorderedNames.push_back(std::move(n));
    }
    std::sort(unorderedNames.begin(), unorderedNames.end());

    std::string msg;
    size_t leaks = 0;
    for (const auto &[file, content] : contents) {
        FileReport report = lintSource(file, content,
                                       Options::defaults(),
                                       unorderedNames);
        for (const Finding &f : report.findings) {
            ++leaks;
            msg += f.file + ":" + std::to_string(f.line) + ": [" +
                   f.rule + "] " + f.message + "\n";
        }
    }
    EXPECT_EQ(leaks, 0u) << msg;
}

} // namespace
} // namespace fusion::lint
