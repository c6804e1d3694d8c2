#include "explain.h"

#include <algorithm>
#include <cstdio>

namespace fusion::obs {

namespace {

std::string
fmt(const char *format, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace

size_t
QueryExplain::pushCount() const
{
    return static_cast<size_t>(
        std::count_if(projections.begin(), projections.end(),
                      [](const ExplainChunk &c) {
                          return c.verdict == "push";
                      }));
}

size_t
QueryExplain::fetchCount() const
{
    return static_cast<size_t>(
        std::count_if(projections.begin(), projections.end(),
                      [](const ExplainChunk &c) {
                          return c.verdict == "fetch";
                      }));
}

size_t
QueryExplain::localCount() const
{
    return static_cast<size_t>(
        std::count_if(projections.begin(), projections.end(),
                      [](const ExplainChunk &c) {
                          return c.verdict == "local";
                      }));
}

std::string
QueryExplain::render() const
{
    std::string out;
    out += "EXPLAIN " + query + "\n";
    out += "table: " + table +
           "  selectivity: " + fmt("%.6f", selectivity) + "\n";
    out += "row groups: " + std::to_string(rowGroupsScanned) +
           " scanned, " + std::to_string(rowGroupsSkipped) +
           " skipped (zone maps)\n";
    out += "filter stage: " + std::to_string(filterPushdowns) +
           " pushdowns, " + std::to_string(filterFetches) + " fetches, " +
           std::to_string(filterCached) + " cached\n";
    out += "projection stage: " + std::to_string(pushCount()) +
           " pushdowns, " + std::to_string(fetchCount()) + " fetches, " +
           std::to_string(localCount()) + " cached-local\n";

    // Column widths over the data actually rendered.
    const char *headers[] = {"chunk", "rg", "column",  "sel",
                             "comp",  "product", "verdict", "reason"};
    std::vector<std::vector<std::string>> rows;
    for (const auto &c : projections) {
        rows.push_back({std::to_string(c.chunkId),
                        std::to_string(c.rowGroup), c.column,
                        fmt("%.4f", c.selectivity),
                        fmt("%.3f", c.compressibility),
                        fmt("%.4f", c.product()), c.verdict, c.reason});
    }
    size_t widths[8];
    for (size_t i = 0; i < 8; ++i)
        widths[i] = std::string(headers[i]).size();
    for (const auto &row : rows)
        for (size_t i = 0; i < 8; ++i)
            widths[i] = std::max(widths[i], row[i].size());

    auto emit_row = [&](const std::vector<std::string> &cells) {
        out += "|";
        for (size_t i = 0; i < 8; ++i) {
            out += " " + cells[i];
            out += std::string(widths[i] - cells[i].size() + 1, ' ');
            out += "|";
        }
        out += "\n";
    };
    emit_row({headers, headers + 8});
    out += "|";
    for (size_t i = 0; i < 8; ++i)
        out += std::string(widths[i] + 2, '-') + "|";
    out += "\n";
    for (const auto &row : rows)
        emit_row(row);
    for (const auto &r : replies)
        out += "reply: " + r.column + "  " + r.encoding + "  " +
               std::to_string(r.bytes) + " B (plain " +
               std::to_string(r.plainBytes) + " B)\n";
    return out;
}

std::string
QueryExplain::toJson() const
{
    std::string out = "{\n";
    out += "  \"table\": \"" + table + "\",\n";
    out += "  \"selectivity\": " + fmt("%.17g", selectivity) + ",\n";
    out += "  \"row_groups_scanned\": " +
           std::to_string(rowGroupsScanned) + ",\n";
    out += "  \"row_groups_skipped\": " +
           std::to_string(rowGroupsSkipped) + ",\n";
    out += "  \"filter_pushdowns\": " + std::to_string(filterPushdowns) +
           ",\n";
    out += "  \"filter_fetches\": " + std::to_string(filterFetches) +
           ",\n";
    out += "  \"filter_cached\": " + std::to_string(filterCached) + ",\n";
    out += "  \"projections\": [\n";
    for (size_t i = 0; i < projections.size(); ++i) {
        const ExplainChunk &c = projections[i];
        out += "    {\"chunk\": " + std::to_string(c.chunkId) +
               ", \"row_group\": " + std::to_string(c.rowGroup) +
               ", \"column\": \"" + c.column + "\"" +
               ", \"selectivity\": " + fmt("%.17g", c.selectivity) +
               ", \"compressibility\": " +
               fmt("%.17g", c.compressibility) +
               ", \"product\": " + fmt("%.17g", c.product()) +
               ", \"verdict\": \"" + c.verdict + "\"" +
               ", \"reason\": \"" + c.reason + "\"}";
        out += i + 1 < projections.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
    out += "  \"replies\": [\n";
    for (size_t i = 0; i < replies.size(); ++i) {
        const ExplainReply &r = replies[i];
        out += "    {\"column\": \"" + r.column + "\"" +
               ", \"encoding\": \"" + r.encoding + "\"" +
               ", \"bytes\": " + std::to_string(r.bytes) +
               ", \"plain_bytes\": " + std::to_string(r.plainBytes) + "}";
        out += i + 1 < replies.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace fusion::obs
