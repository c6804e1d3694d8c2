/**
 * @file
 * Shared-scan query scheduler with a continuous admission window.
 *
 * Planned per-chunk work lives in a window of pending entries — one
 * per deduplicated transfer — from the simulated instant a query is
 * admitted until the instant the transfer is issued. A newly submitted
 * query joins an existing pending entry at ANY point in that window
 * (not just at a batch barrier):
 *
 *   - identical chunk/block fetches (equal SimTask::shareKey) are
 *     issued once; every consumer attached before issue waits on the
 *     one in-flight transfer and pays only coordinator-side work;
 *   - compatible projection pushdowns against the same chunk merge
 *     into one storage-node task with a shared reply;
 *   - the Cost Equation (query::decidePushdown) is re-evaluated
 *     INCREMENTALLY as consumers attach: two or more pushdown
 *     consumers weigh their merged replies (one per filter signature)
 *     against one shared fetch, and the per-node load term applies
 *     to every pushdown, a lone one included. A chunk whose verdict
 *     flips from pushdown to shared-fetch converts in place — every
 *     attached pushdown becomes a rider on one chunk fetch, and the
 *     fetched bytes are admitted into the coordinator hot-chunk cache
 *     — while later pushdowns are shed off nodes whose live
 *     outstanding work exceeds the admission limit.
 *
 * A query arriving after an entry's transfer was issued does NOT join
 * it; the key starts a fresh generation. Clients drive the window
 * through an async handle API modeled on PaCHash's object store
 * client: submit() returns a reusable QueryHandle carrying a caller
 * tag, awaitAny() harvests completions in deterministic simulated-time
 * order, awaitAll() drains the window. runBatch() remains as a thin
 * closed-batch wrapper (submit everything, awaitAll).
 *
 * Everything runs on the simulation driver thread against the store's
 * sim::Engine, so outcomes, sched.* metrics, admission_window /
 * handle_await / shared_scan / sched_wait trace spans and amended
 * EXPLAIN reasons ("shared-fetch", "merged-pushdown", "load-shed",
 * "joined-inflight") are deterministic across runs and thread counts,
 * and per-query results stay bit-identical to isolated execution.
 */
#ifndef FUSION_SCHED_SCHEDULER_H
#define FUSION_SCHED_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "format/metadata.h"
#include "query/parser.h"
#include "store/object_store.h"

namespace fusion::sched {

/** Scheduler tuning knobs. */
struct SchedOptions {
    /**
     * Per-node admission limit on outstanding pushdown CPU work, in
     * simulated seconds of the node's full-core capacity. Work is
     * charged when a pushdown is admitted to the window and released
     * when its storage-node execution completes; once a node's live
     * outstanding work exceeds this, further pushdowns targeting it
     * are converted to coordinator-side evaluation (EXPLAIN reason
     * "load-shed"). 0 disables the term.
     */
    double nodeLoadLimitSeconds = 0.25;
};

/** Per-storage-node slice of the window's dedup accounting. */
struct NodeDedupStats {
    size_t tasksPlanned = 0; // tasks planned against this node
    size_t tasksIssued = 0;  // unique executions after dedup

    /** Fraction of this node's planned tasks absorbed by sharing. */
    double
    dedupRate() const
    {
        if (tasksPlanned == 0)
            return 0.0;
        return 1.0 - static_cast<double>(tasksIssued) /
                         static_cast<double>(tasksPlanned);
    }
};

/** What the window did with the queries admitted since the last
 *  runBatch (also mirrored as sched.* counters in the store's metrics
 *  registry). Raw submit() calls accumulate; runBatch resets. The
 *  inherited task counts and dedupRate() sum over every node. */
struct BatchStats : NodeDedupStats {
    size_t queries = 0;
    size_t sharedFetches = 0; // fetch tasks absorbed by an equal fetch
    size_t mergedPushdowns = 0; // pushdowns absorbed by an equal one
    size_t joinedInflight = 0; // consumers that joined a chunk entry
                               // created at an earlier sim instant
    size_t fetchConversions = 0; // pushdowns -> shared fetch (cost eq)
    size_t loadSheds = 0;        // pushdowns -> fetch (node load term)
    uint64_t wireBytesSaved = 0; // request+reply bytes never re-sent
    double makespanSeconds = 0.0; // batch admit -> last client reply
    /** Dedup accounting split by storage node. */
    std::map<size_t, NodeDedupStats> perNode;
};

class SharedScanScheduler;

/**
 * Async completion handle for one submitted query (PaCHash-style
 * reusable handle). Owned by the scheduler; submit() hands out either
 * a fresh handle or one previously harvested through awaitAny(), so a
 * handle's outcome stays readable until the handle is reused by a
 * later submit. `tag` is free for callers to correlate completions
 * (PaCHash's `name` field); the scheduler never interprets it.
 */
class QueryHandle
{
  public:
    enum class State {
        kIdle,    // never submitted, or recycled
        kPending, // submitted, completion not yet harvestable
        kDone,    // completed; status()/outcome() are valid
    };

    QueryHandle() = default;
    QueryHandle(const QueryHandle &) = delete;
    QueryHandle &operator=(const QueryHandle &) = delete;

    /** Caller-owned correlation tag, set at submit. */
    uint64_t tag = 0;

    State state() const { return state_; }
    bool pending() const { return state_ == State::kPending; }
    bool done() const { return state_ == State::kDone; }

    /** Planning/parsing status; OK for simulated completions. */
    const Status &status() const { return status_; }
    /** Valid once done() and status().isOk(). */
    const store::QueryOutcome &outcome() const { return outcome_; }

    /** Simulated admission instant of the last submit. */
    double submitSeconds() const { return submitSeconds_; }
    /** Simulated completion instant (client reply received). */
    double completionSeconds() const { return doneSeconds_; }
    /** Admission -> completion, the open-loop sojourn time. */
    double sojournSeconds() const { return doneSeconds_ - submitSeconds_; }

  private:
    friend class SharedScanScheduler;

    State state_ = State::kIdle;
    Status status_;
    store::QueryOutcome outcome_;
    double submitSeconds_ = 0.0;
    double doneSeconds_ = 0.0;
};

/**
 * Streams concurrent queries against one store through a continuous
 * admission window of deduplicated pushdown requests. The window is a
 * dispatch policy, not an executor: each admitted query runs through
 * the store's stage DAG (store::StageDag::simulateQuery), which hands
 * every task to demand() instead of running it alone. A query
 * submitted and awaited alone therefore matches store.query() exactly,
 * and batched results are bit-identical to isolated execution.
 */
class SharedScanScheduler
{
  public:
    explicit SharedScanScheduler(store::ObjectStore &store,
                                 const SchedOptions &options = {});

    /**
     * Admits one query at the current simulated instant: plans it,
     * attaches its work to the admission window (joining any pending
     * entries, re-running the merged Cost Equation incrementally) and
     * returns a handle. The query's simulation starts lazily on the
     * next awaitAny()/awaitAll(); submit() itself never advances
     * simulated time, so it is safe to call from inside engine events
     * (open-loop arrival processes). Planning failures complete the
     * handle immediately with the error status.
     */
    QueryHandle *submit(const query::Query &q, uint64_t tag = 0);

    /** Parses one statement, then submit(). */
    QueryHandle *submitSql(const std::string &sql, uint64_t tag = 0);

    /**
     * Runs the simulation until at least one submitted query has
     * completed, then returns its handle (completions are harvested
     * FIFO in simulated completion order, which is deterministic).
     * Returns nullptr when nothing is pending. A returned handle is
     * recycled into the submit() pool; its outcome stays valid until
     * the handle is reused.
     */
    QueryHandle *awaitAny();

    /**
     * Runs the simulation until every submitted query has completed.
     * Completed handles stay harvestable through awaitAny().
     */
    void awaitAll();

    /** Queries submitted but not yet completed. */
    size_t inFlight() const { return active_.size(); }
    /** Completions not yet harvested by awaitAny(). */
    size_t completedPending() const { return completed_.size(); }

    /**
     * Closed-batch compatibility wrapper over submit() + awaitAll():
     * admits `batch` at the current simulated instant and drains the
     * window. Returns per-query outcomes in batch order; each
     * outcome's latency is measured from batch admission. If any query
     * fails to plan, the first error (in batch order) is returned
     * after the remaining queries drain.
     */
    Result<std::vector<store::QueryOutcome>>
    runBatch(const std::vector<query::Query> &batch);

    /** Stats since the most recent runBatch (or construction). */
    const BatchStats &lastBatchStats() const { return stats_; }
    /** Alias for open-loop callers: same accumulator. */
    const BatchStats &windowStats() const { return stats_; }

    const SchedOptions &options() const { return options_; }

  private:
    using SimTask = store::SimTask;
    using QueryPlan = store::QueryPlan;
    /** A chunk group's identity: (object, base generation, chunk id). */
    using GroupKey = std::tuple<std::string, uint64_t, uint32_t>;

    /**
     * One deduplicated transfer in the admission window. Pending from
     * creation until its first consumer demands execution (issue);
     * consumers attached while pending share the one execution.
     */
    struct ExecEntry {
        std::string key;
        /** The chunk group its first attacher joined, if any. */
        std::optional<GroupKey> group;
        bool issued = false;
        bool done = false;
        size_t consumers = 0;
        double createdSeconds = 0.0;
        uint64_t windowSpan = 0; // admission_window trace span
        /** Pushdown load to refund to the node at completion. */
        size_t releaseNode = 0;
        double releaseSeconds = 0.0;
        /** Continuations of consumers waiting on the in-flight run. */
        std::vector<std::function<void()>> waiters;
    };

    /** One admitted query, from submit to client reply. */
    struct PendingQuery {
        QueryHandle *handle = nullptr;
        uint64_t seq = 0;
        double submitSeconds = 0.0;
        std::shared_ptr<QueryPlan> plan;
        /** Window attachment per task (null = unkeyed, runs alone). */
        std::vector<std::shared_ptr<ExecEntry>> filterEntries;
        std::vector<std::shared_ptr<ExecEntry>> projEntries;
        /** EXPLAIN amendments: chunkId -> (verdict, reason). */
        std::map<uint32_t, std::pair<const char *, const char *>>
            overrides;
    };

    /** A consumer attached to a chunk's merge group. */
    struct GroupConsumer {
        std::shared_ptr<PendingQuery> pq;
        size_t ti; // index into pq->plan->projectionTasks
        bool pusher;
        double attachSeconds = 0.0;
    };

    /**
     * Merged Cost Equation state for one (object, chunk). Lives in the
     * window from the first consumer's admission until the chunk's
     * first transfer is issued; conversion to shared fetch happens in
     * place while pending.
     */
    struct ChunkGroup {
        GroupKey key;
        double createdSeconds = 0.0;
        bool converted = false;  // verdict flipped to shared fetch
        bool hasFetcher = false; // some consumer already fetches
        size_t nodeId = 0;
        format::ChunkMeta chunk; // stored and plain sizes
        size_t pusherCount = 0; // admitted (unconverted) pushdowns
        /** Admitted pushdowns per filter signature (share key). */
        std::map<std::string, size_t> members;
        /** One reply per filter signature, summed. */
        uint64_t mergedReplyBytes = 0;
        std::vector<GroupConsumer> consumers;
    };

    QueryHandle *acquireHandle(uint64_t tag);
    /** Completes a handle synchronously with a planning error. */
    QueryHandle *failHandle(QueryHandle *h, Status status);

    /** Group pass: admits one projection task to its chunk group. */
    void attachGroup(const std::shared_ptr<PendingQuery> &pq, size_t ti);
    /** The chunk group a projection-stage task joins for the merged
     *  Cost Equation: chunk fetches and projection/aggregate pushdowns. */
    static std::optional<GroupKey> chunkGroupOf(const SimTask &t);
    /** Entry pass: create-or-join the window entry for a task's share
     *  key. */
    std::shared_ptr<ExecEntry> attachEntry(const SimTask &t);
    /** Detaches a consumer; cancels the entry when none remain. */
    void releaseEntry(const std::shared_ptr<ExecEntry> &entry);
    /** Flips every admitted pushdown of `g` to ride one shared chunk
     *  fetch and admits the chunk into the hot-chunk cache. */
    void convertGroup(ChunkGroup &g, const char *reason, bool load_shed);
    /** Rewrites one consumer's pushdown task to the shared-fetch form
     *  and rebinds its window entry. */
    void convertConsumer(PendingQuery &pq, size_t ti, const char *reason,
                         bool load_shed);
    /** Ends an entry's window (and its chunk group's) at issue. */
    void sealAtIssue(ExecEntry &entry);
    /** Refunds a completed entry's admitted pushdown load. */
    void releaseEntryLoad(ExecEntry &entry);

    /** Starts the stage DAG of every admitted-but-unstarted query. */
    void startPending();
    /** The window's task dispatch: issue one task, or absorb it into
     *  the shared in-flight run the consumer attached to. */
    void demand(const std::shared_ptr<PendingQuery> &pq, bool projection,
                size_t ti, const std::shared_ptr<sim::Join> &join);
    /** Applies the EXPLAIN amendments and completes the handle. */
    void complete(const std::shared_ptr<PendingQuery> &pq);

    store::ObjectStore &store_;
    store::StageDag &stages_;
    SchedOptions options_;
    BatchStats stats_;
    double nodeCapacity_ = 0.0; // cpuRate x cores, work units/second

    /** All handles ever created (stable addresses). */
    std::deque<std::unique_ptr<QueryHandle>> handles_;
    /** Harvested handles eligible for reuse, FIFO. */
    std::deque<QueryHandle *> freeHandles_;
    /** Admitted queries by submission sequence (deterministic). */
    std::map<uint64_t, std::shared_ptr<PendingQuery>> active_;
    /** Admitted queries whose DES flow has not been started. */
    std::deque<std::shared_ptr<PendingQuery>> startQueue_;
    /** Completed handles awaiting harvest, in completion order. */
    std::deque<QueryHandle *> completed_;

    /** Pending entries by share key (erased at issue: later arrivals
     *  start a fresh generation instead of joining). */
    std::map<std::string, std::shared_ptr<ExecEntry>> execWindow_;
    /** Pending chunk groups (erased when the first member transfer is
     *  issued). */
    std::map<GroupKey, std::shared_ptr<ChunkGroup>> groupWindow_;
    /** Live admitted pushdown work per node, seconds of capacity. */
    std::map<size_t, double> nodeOutstanding_;
    /** Charged-but-unissued pushdown load by share key; moved onto the
     *  entry at issue, refunded directly on conversion. */
    std::map<std::string, std::pair<size_t, double>> chargedLoad_;

    uint64_t nextSeq_ = 0;
    double lastDoneSeconds_ = 0.0;

    /** sched.* instruments, resolved once (same registry as the
     *  store's fault/cache/wire instruments). */
    obs::MetricsRegistry &metrics_ = store_.obs().metrics;
    obs::Counter &batches_ = metrics_.counter("sched.batches");
    obs::Counter &queries_ = metrics_.counter("sched.queries");
    obs::Counter &tasksPlanned_ = metrics_.counter("sched.tasks_planned");
    obs::Counter &tasksIssued_ = metrics_.counter("sched.tasks_issued");
    obs::Counter &sharedFetches_ = metrics_.counter("sched.shared_fetches");
    obs::Counter &mergedPushdowns_ =
        metrics_.counter("sched.merged_pushdowns");
    obs::Counter &joinedInflight_ = metrics_.counter("sched.joined_inflight");
    obs::Counter &fetchConversions_ =
        metrics_.counter("sched.fetch_conversions");
    obs::Counter &loadSheds_ = metrics_.counter("sched.load_sheds");
    obs::Counter &wireBytesSaved_ = metrics_.counter("sched.wire_bytes_saved");
    obs::Histogram &queueWait_ = metrics_.histogram(
        "sched.queue_wait_seconds", obs::exponentialBounds(1e-6, 4.0, 14));
};

} // namespace fusion::sched

#endif // FUSION_SCHED_SCHEDULER_H
