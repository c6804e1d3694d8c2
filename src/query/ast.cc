#include "ast.h"

#include <algorithm>

namespace fusion::query {

const char *
compareOpName(CompareOp op)
{
    switch (op) {
      case CompareOp::kLt: return "<";
      case CompareOp::kLe: return "<=";
      case CompareOp::kGt: return ">";
      case CompareOp::kGe: return ">=";
      case CompareOp::kEq: return "=";
      case CompareOp::kNe: return "!=";
    }
    return "?";
}

const char *
aggregateKindName(AggregateKind kind)
{
    switch (kind) {
      case AggregateKind::kNone: return "";
      case AggregateKind::kCount: return "COUNT";
      case AggregateKind::kSum: return "SUM";
      case AggregateKind::kAvg: return "AVG";
      case AggregateKind::kMin: return "MIN";
      case AggregateKind::kMax: return "MAX";
    }
    return "?";
}

namespace {

void
pushUnique(std::vector<std::string> &out, const std::string &name)
{
    if (!name.empty() &&
        std::find(out.begin(), out.end(), name) == out.end()) {
        out.push_back(name);
    }
}

} // namespace

std::vector<std::string>
Query::projectionColumns() const
{
    std::vector<std::string> out;
    for (const auto &proj : projections)
        pushUnique(out, proj.column);
    return out;
}

std::vector<std::string>
Query::filterColumns() const
{
    std::vector<std::string> out;
    for (const auto &pred : filters)
        pushUnique(out, pred.column);
    return out;
}

std::string
Query::toString() const
{
    std::string out = "SELECT ";
    for (size_t i = 0; i < projections.size(); ++i) {
        if (i)
            out += ", ";
        const Projection &proj = projections[i];
        if (proj.aggregate != AggregateKind::kNone) {
            out += aggregateKindName(proj.aggregate);
            out += "(";
            out += proj.isCountStar() ? "*" : proj.column;
            out += ")";
        } else {
            out += proj.column;
        }
    }
    out += " FROM " + table;
    for (size_t i = 0; i < filters.size(); ++i) {
        out += (i == 0) ? " WHERE " : " AND ";
        out += filters[i].column;
        out += " ";
        out += compareOpName(filters[i].op);
        out += " ";
        const bool quoted =
            filters[i].literal.type() == format::PhysicalType::kString;
        if (quoted)
            out += "'";
        out += filters[i].literal.toString();
        if (quoted)
            out += "'";
    }
    return out;
}

} // namespace fusion::query
