/**
 * @file
 * The Pushdown Cost Estimator (paper §4.3). After the filter stage the
 * coordinator knows the exact query selectivity; each candidate
 * projection chunk's compressibility comes from footer metadata. The
 * Cost Equation pushes a projection down only when
 *
 *     selectivity x compressibility < 1
 *
 * i.e. when the uncompressed projected values are smaller on the wire
 * than the compressed chunk would be.
 */
#ifndef FUSION_QUERY_COST_H
#define FUSION_QUERY_COST_H

#include <cstdint>
#include <map>
#include <string>

#include "format/metadata.h"

namespace fusion::query {

/** Outcome of the cost model for one chunk's projection. */
struct PushdownDecision {
    bool push = true;
    double selectivity = 0.0;
    double compressibility = 1.0;

    /** The Cost Equation's left-hand side. */
    double product() const { return selectivity * compressibility; }
};

/** Applies the Cost Equation to one chunk. */
inline PushdownDecision
decideProjectionPushdown(double selectivity, const format::ChunkMeta &chunk)
{
    PushdownDecision decision;
    decision.selectivity = selectivity;
    decision.compressibility = chunk.compressibility();
    decision.push = decision.product() < 1.0;
    return decision;
}

/**
 * Shared-scan extension of the Cost Equation. When several concurrent
 * queries project the same chunk, the scheduler merges compatible
 * pushdown requests; the per-query equation no longer applies because
 * the alternative to N pushdown replies is ONE shared chunk fetch. The
 * merged consumer set pushes down only when
 *
 *     merged_selectivity x compressibility < 1
 *
 * where merged_selectivity is the union of the consumers' reply bytes
 * over the chunk's plain size — i.e. the summed replies must still be
 * smaller on the wire than the compressed chunk fetched once. A
 * per-node load term models storage-side CPU oversubscription (OASIS /
 * pushdown-contention literature): when the node already has more
 * outstanding pushdown work than `load_limit_seconds` of its CPU
 * capacity, the verdict flips to coordinator-side evaluation
 * regardless of the byte math (EXPLAIN reason "load-shed").
 */
struct SharedPushdownDecision {
    bool push = true;
    /** True when the byte math said push but the node load term
     *  overrode it. */
    bool loadShed = false;
    double mergedSelectivity = 0.0;
    double compressibility = 1.0;
    uint64_t mergedReplyBytes = 0;

    /** The shared Cost Equation's left-hand side. */
    double product() const { return mergedSelectivity * compressibility; }
};

/** Applies the shared Cost Equation to one chunk's merged consumers. */
inline SharedPushdownDecision
decideSharedProjectionPushdown(uint64_t merged_reply_bytes,
                               const format::ChunkMeta &chunk,
                               double node_outstanding_seconds,
                               double load_limit_seconds)
{
    SharedPushdownDecision decision;
    decision.mergedReplyBytes = merged_reply_bytes;
    decision.compressibility = chunk.compressibility();
    decision.mergedSelectivity =
        chunk.plainSize == 0
            ? 0.0
            : static_cast<double>(merged_reply_bytes) /
                  static_cast<double>(chunk.plainSize);
    // merged_sel x compressibility < 1  <=>  merged replies < stored
    decision.push = merged_reply_bytes < chunk.storedSize;
    if (decision.push && load_limit_seconds > 0.0 &&
        node_outstanding_seconds > load_limit_seconds) {
        decision.push = false;
        decision.loadShed = true;
    }
    return decision;
}

/**
 * Incremental form of the shared Cost Equation for the continuous
 * admission window. Consumers attach to a chunk's merge state one at a
 * time (in simulated arrival order, not batch order); each attach
 * folds the consumer's reply subgroup in and re-evaluates the merged
 * verdict against the live per-node load. Distinct subgroups are keyed
 * by the pushdown share key (the filter signature): duplicate
 * consumers share one reply and add no bytes, so the merged decision
 * after N attaches is identical to evaluating the final consumer set
 * at once — the verdict can only flip push -> fetch as consumers
 * accumulate (merged reply bytes grow monotonically).
 */
class SharedPushdownMerge
{
  public:
    SharedPushdownMerge() = default;
    explicit SharedPushdownMerge(const format::ChunkMeta &chunk)
        : storedSize_(chunk.storedSize), plainSize_(chunk.plainSize)
    {
    }

    /**
     * Folds one consumer's reply subgroup in (duplicates are free) and
     * returns the merged decision. `node_outstanding_seconds` is the
     * target node's live admitted-pushdown load INCLUDING this chunk's
     * already-charged subgroups plus what this attach would add.
     */
    SharedPushdownDecision
    attach(const std::string &subgroup_key, uint64_t reply_bytes,
           double node_outstanding_seconds, double load_limit_seconds)
    {
        if (subgroups_.emplace(subgroup_key, reply_bytes).second)
            mergedReplyBytes_ += reply_bytes;
        return decide(node_outstanding_seconds, load_limit_seconds);
    }

    /** Re-evaluates the merged verdict without adding a consumer. */
    SharedPushdownDecision
    decide(double node_outstanding_seconds,
           double load_limit_seconds) const
    {
        format::ChunkMeta chunk;
        chunk.storedSize = storedSize_;
        chunk.plainSize = plainSize_;
        return decideSharedProjectionPushdown(mergedReplyBytes_, chunk,
                                              node_outstanding_seconds,
                                              load_limit_seconds);
    }

    uint64_t mergedReplyBytes() const { return mergedReplyBytes_; }
    size_t subgroupCount() const { return subgroups_.size(); }
    /** Members of `subgroup_key` so far (0 when never attached). */
    size_t
    subgroupMembers(const std::string &subgroup_key) const
    {
        auto it = members_.find(subgroup_key);
        return it == members_.end() ? 0 : it->second;
    }

    /** Tallies one member into its subgroup (reply-sharing stats). */
    void addMember(const std::string &subgroup_key)
    {
        ++members_[subgroup_key];
    }

  private:
    uint64_t storedSize_ = 0;
    uint64_t plainSize_ = 0;
    uint64_t mergedReplyBytes_ = 0;
    /** Distinct filter signatures -> reply bytes (one reply each). */
    std::map<std::string, uint64_t> subgroups_;
    std::map<std::string, size_t> members_;
};

} // namespace fusion::query

#endif // FUSION_QUERY_COST_H
