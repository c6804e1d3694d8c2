/**
 * @file
 * bench_paper's figure table. Each paper table, figure and ablation is
 * one function: it prints the rows the paper reports (stdout) and
 * records named claims — winners, crossovers and bounds taken from the
 * paper text — that bench_paper checks after the figure runs.
 */
#ifndef FUSION_BENCH_PAPER_H
#define FUSION_BENCH_PAPER_H

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace fusion::paper {

/** One checked statement about a figure's measured values. */
struct Claim {
    std::string id;   // "<figure id>.<name>"
    double value = 0; // measured
    double lo = 0;    // value must lie in [lo, hi]; either end may be
    double hi = 0;    // infinite

    bool holds() const { return value >= lo && value <= hi; }
    /** ">= lo", "<= hi", "== lo" or "in [lo, hi]". */
    std::string bound() const;
};

/** The claims one figure records, ids prefixed with its figure id. */
class Claims
{
  public:
    explicit Claims(std::string figure) : figure_(std::move(figure)) {}

    void atLeast(const std::string &name, double value, double bound)
    {
        add(name, value, bound, kOpen);
    }
    void atMost(const std::string &name, double value, double bound)
    {
        add(name, value, -kOpen, bound);
    }
    void equals(const std::string &name, double value, double expected)
    {
        add(name, value, expected, expected);
    }
    void within(const std::string &name, double value, double lo, double hi)
    {
        add(name, value, lo, hi);
    }
    /** A yes/no fact: recorded as value 1/0 that must equal 1. */
    void fact(const std::string &name, bool holds)
    {
        add(name, holds ? 1 : 0, 1, 1);
    }

    const std::vector<Claim> &all() const { return claims_; }

  private:
    static constexpr double kOpen = std::numeric_limits<double>::infinity();

    void add(const std::string &name, double value, double lo, double hi)
    {
        claims_.push_back({figure_ + "." + name, value, lo, hi});
    }

    std::string figure_;
    std::vector<Claim> claims_;
};

/** A figure: `--figure id` runs it under the banner "name: title". */
struct Figure {
    const char *id;
    const char *name;
    const char *title;
    void (*run)(Claims &);
};

// Layout, dataset and FAC figures (paper_layout.cpp): no store runs.
void table3(Claims &c);
void table4(Claims &c);
void fig4a(Claims &c);
void fig4c(Claims &c);
void fig4d(Claims &c);
void fig6(Claims &c);
void fig10a(Claims &c);
void fig12(Claims &c);
void fig16a(Claims &c);
void fig16bc(Claims &c);
void ablationNk(Claims &c);
void ablationThreshold(Claims &c);
void ablationRecovery(Claims &c);
void deploymentStudy(Claims &c);

// Query figures (paper_query.cpp): paired baseline/Fusion store runs.
void fig4b(Claims &c);
void fig10b(Claims &c);
void fig13ab(Claims &c);
void fig13cd(Claims &c);
void fig14ab(Claims &c);
void fig14c(Claims &c);
void fig14d(Claims &c);
void fig15(Claims &c);
void ablationAggregate(Claims &c);
void ablationCostModel(Claims &c);
void ablationBloom(Claims &c);
void ablationIngest(Claims &c);
void ablationFaults(Claims &c);

// System ablations (paper_system.cpp): one FusionStore, one mechanism
// on and off.
void ablationCache(Claims &c);
void ablationFold(Claims &c);
void ablationWindow(Claims &c);
void ablationWindowOpen(Claims &c);

} // namespace fusion::paper

#endif // FUSION_BENCH_PAPER_H
