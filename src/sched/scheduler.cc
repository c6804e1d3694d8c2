#include "scheduler.h"

#include <utility>

#include "query/cost.h"
#include "sim/cluster.h"

namespace fusion::sched {

using store::QueryOutcome;

SharedScanScheduler::SharedScanScheduler(store::ObjectStore &store,
                                         const SchedOptions &options)
    : store_(store), stages_(store.stages()), options_(options)
{
    const sim::NodeConfig &nc = store.cluster().config().node;
    nodeCapacity_ = nc.cpuRate * static_cast<double>(nc.cpuCores);
}

// ---- handle pool ----

QueryHandle *
SharedScanScheduler::acquireHandle(uint64_t tag)
{
    QueryHandle *h;
    if (!freeHandles_.empty()) {
        h = freeHandles_.front();
        freeHandles_.pop_front();
    } else {
        handles_.push_back(std::make_unique<QueryHandle>());
        h = handles_.back().get();
    }
    h->tag = tag;
    h->state_ = QueryHandle::State::kPending;
    h->status_ = Status::ok();
    h->outcome_ = QueryOutcome{};
    h->submitSeconds_ = store_.cluster().engine().now();
    h->doneSeconds_ = 0.0;
    return h;
}

QueryHandle *
SharedScanScheduler::failHandle(QueryHandle *h, Status status)
{
    h->state_ = QueryHandle::State::kDone;
    h->status_ = std::move(status);
    h->doneSeconds_ = h->submitSeconds_;
    completed_.push_back(h);
    return h;
}

// ---- admission ----

QueryHandle *
SharedScanScheduler::submit(const query::Query &q, uint64_t tag)
{
    QueryHandle *h = acquireHandle(tag);
    ++stats_.queries;
    queries_.add(1);

    auto planned = store_.planQueryForBatch(q);
    if (!planned.isOk())
        return failHandle(h, planned.status());

    auto pq = std::make_shared<PendingQuery>();
    pq->handle = h;
    pq->seq = nextSeq_++;
    pq->submitSeconds = h->submitSeconds_;
    pq->plan = std::move(planned.value());

    const size_t planned_tasks =
        pq->plan->filterTasks.size() + pq->plan->projectionTasks.size();
    stats_.tasksPlanned += planned_tasks;
    tasksPlanned_.add(planned_tasks);
    for (const SimTask &t : pq->plan->filterTasks)
        ++stats_.perNode[t.nodeId].tasksPlanned;
    for (const SimTask &t : pq->plan->projectionTasks)
        ++stats_.perNode[t.nodeId].tasksPlanned;

    // Group pass: admit each per-chunk projection to the merged Cost
    // Equation, converting groups whose verdict flips. Runs before the
    // entry pass so a task rewritten here attaches its final key.
    for (size_t ti = 0; ti < pq->plan->projectionTasks.size(); ++ti)
        attachGroup(pq, ti);

    // Entry pass: create-or-join one window entry per keyed task.
    auto attach_all = [this](const std::vector<SimTask> &tasks) {
        std::vector<std::shared_ptr<ExecEntry>> entries(tasks.size());
        for (size_t i = 0; i < tasks.size(); ++i)
            if (!tasks[i].shareKey.empty())
                entries[i] = attachEntry(tasks[i]);
        return entries;
    };
    pq->filterEntries = attach_all(pq->plan->filterTasks);
    pq->projEntries = attach_all(pq->plan->projectionTasks);

    active_.emplace(pq->seq, pq);
    startQueue_.push_back(std::move(pq));
    return h;
}

QueryHandle *
SharedScanScheduler::submitSql(const std::string &sql, uint64_t tag)
{
    auto q = query::parseQuery(sql);
    if (!q.isOk())
        return failHandle(acquireHandle(tag), q.status());
    return submit(q.value(), tag);
}

void
SharedScanScheduler::attachGroup(const std::shared_ptr<PendingQuery> &pq,
                                 size_t ti)
{
    SimTask &t = pq->plan->projectionTasks[ti];
    std::optional<GroupKey> gkey = chunkGroupOf(t);
    if (!gkey)
        return;
    const double now = store_.cluster().engine().now();
    const bool pusher = t.isPushdown();

    auto &slot = groupWindow_[*gkey];
    if (!slot) {
        slot = std::make_shared<ChunkGroup>();
        slot->key = *gkey;
        slot->createdSeconds = now;
        slot->nodeId = t.nodeId;
        slot->chunk.storedSize = t.chunkStoredBytes;
        slot->chunk.plainSize = t.chunkPlainBytes;
    }
    ChunkGroup &g = *slot;
    const bool late = now > g.createdSeconds;
    if (late) {
        ++stats_.joinedInflight;
        joinedInflight_.add(1);
    }

    if (!pusher) {
        // A consumer that fetches the whole chunk to the coordinator.
        g.hasFetcher = true;
        g.consumers.push_back({pq, ti, false, now});
        if (late)
            pq->overrides[t.chunkId] = {"fetch", "joined-inflight"};
        // Pushdown replies on top of that fetch are pure extra wire:
        // flip any admitted pushdowns to ride it.
        if (!g.converted && g.pusherCount > 0)
            convertGroup(g, "shared-fetch", false);
        return;
    }

    if (g.converted || g.hasFetcher) {
        // The chunk already crosses the wire whole; ride that fetch.
        convertConsumer(*pq, ti, late ? "joined-inflight" : "shared-fetch",
                        false);
        g.consumers.push_back({pq, ti, true, now});
        return;
    }

    // Incremental Cost Equation. A new filter signature adds one reply
    // to the merged bytes and one storage-node execution to the load
    // term; a duplicate shares an admitted reply and adds nothing.
    size_t &members = g.members[t.shareKey];
    const bool first_of_subgroup = members++ == 0;
    double inc = 0.0;
    if (first_of_subgroup) {
        g.mergedReplyBytes += t.replyBytes;
        inc = t.nodeCpuWork / nodeCapacity_;
    }
    g.consumers.push_back({pq, ti, true, now});
    ++g.pusherCount;
    // Two or more pushdown consumers weigh their merged replies against
    // one shared fetch; a lone pushdown keeps its planner verdict, so
    // only the load term applies to it.
    const double selectivity =
        g.pusherCount < 2 || g.chunk.plainSize == 0
            ? 0.0
            : static_cast<double>(g.mergedReplyBytes) /
                  static_cast<double>(g.chunk.plainSize);
    // The load limit is scaled by the target node's health score
    // (obs/timeseries.h): a node working through retries/timeouts
    // advertises less capacity, so pushdowns convert to coordinator
    // fetches earlier. Healthy nodes score exactly 1.0, leaving the
    // configured limit untouched.
    const query::PushdownDecision decision = query::decidePushdown(
        selectivity, g.chunk, nodeOutstanding_[g.nodeId] + inc,
        options_.nodeLoadLimitSeconds *
            store_.obs().telemetry.health().score(g.nodeId, now));
    if (!decision.push) {
        convertGroup(g, decision.loadShed ? "load-shed" : "shared-fetch",
                     decision.loadShed);
        return;
    }

    // Admitted: charge one execution per new filter signature to the
    // node; the charge is refunded when the execution completes (or
    // when the group converts).
    if (first_of_subgroup) {
        nodeOutstanding_[g.nodeId] += inc;
        chargedLoad_[t.shareKey] = {g.nodeId, inc};
    }
    // Consumers of a multi-member subgroup share one reply; re-mark
    // the whole subgroup so every member's EXPLAIN shows the sharing
    // (late joiners keep the more specific "joined-inflight").
    if (members >= 2) {
        for (const GroupConsumer &c : g.consumers) {
            const SimTask &ct = c.pq->plan->projectionTasks[c.ti];
            if (!c.pusher || ct.shareKey != t.shareKey)
                continue;
            c.pq->overrides[ct.chunkId] = {
                "push", c.attachSeconds > g.createdSeconds
                            ? "joined-inflight"
                            : "merged-pushdown"};
        }
    } else if (late) {
        pq->overrides[t.chunkId] = {"push", "joined-inflight"};
    }
}

std::optional<SharedScanScheduler::GroupKey>
SharedScanScheduler::chunkGroupOf(const SimTask &t)
{
    if (t.kind != store::TaskKind::kChunkFetch &&
        t.kind != store::TaskKind::kProjectionPushdown &&
        t.kind != store::TaskKind::kAggregatePushdown)
        return std::nullopt;
    return GroupKey{t.object, t.generation, t.chunkId};
}

std::shared_ptr<SharedScanScheduler::ExecEntry>
SharedScanScheduler::attachEntry(const SimTask &t)
{
    const std::string &key = t.shareKey;
    auto it = execWindow_.find(key);
    if (it != execWindow_.end()) {
        ++it->second->consumers;
        return it->second;
    }
    auto entry = std::make_shared<ExecEntry>();
    entry->key = key;
    entry->group = chunkGroupOf(t);
    entry->consumers = 1;
    entry->createdSeconds = store_.cluster().engine().now();
    entry->windowSpan = store_.obs().tracer.beginSpan(
        "admission_window", "\"key\": \"" + key + "\"");
    execWindow_.emplace(key, entry);
    return entry;
}

void
SharedScanScheduler::releaseEntry(const std::shared_ptr<ExecEntry> &entry)
{
    if (entry == nullptr)
        return;
    FUSION_CHECK_MSG(!entry->issued,
                     "cannot detach from an issued window entry");
    FUSION_CHECK(entry->consumers > 0);
    if (--entry->consumers == 0) {
        store_.obs().tracer.endSpan(entry->windowSpan);
        entry->windowSpan = 0;
        execWindow_.erase(entry->key);
    }
}

void
SharedScanScheduler::convertConsumer(PendingQuery &pq, size_t ti,
                                     const char *reason, bool load_shed)
{
    SimTask &t = pq.plan->projectionTasks[ti];
    t = stages_.makeSharedFetchTask(t);
    FUSION_CHECK(pq.plan->outcome.projectionPushdowns > 0);
    --pq.plan->outcome.projectionPushdowns;
    ++pq.plan->outcome.projectionFetches;
    pq.overrides[t.chunkId] = {"fetch", reason};
    if (load_shed) {
        ++stats_.loadSheds;
        loadSheds_.add(1);
    } else {
        ++stats_.fetchConversions;
        fetchConversions_.add(1);
    }
    // Consumers admitted in earlier submits already attached a window
    // entry under the pushdown key; rebind them to the shared fetch.
    // (The submitting query's entry pass runs after the group pass and
    // picks up the rewritten key by itself.)
    if (ti < pq.projEntries.size()) {
        releaseEntry(pq.projEntries[ti]);
        pq.projEntries[ti] = attachEntry(t);
    }
}

void
SharedScanScheduler::convertGroup(ChunkGroup &g, const char *reason,
                                  bool load_shed)
{
    // Flip every admitted pushdown consumer to the shared-fetch form
    // of its task, refunding the pushdown load charged at admission.
    for (const GroupConsumer &c : g.consumers) {
        if (!c.pusher)
            continue;
        const std::string key = c.pq->plan->projectionTasks[c.ti].shareKey;
        auto charged = chargedLoad_.find(key);
        if (charged != chargedLoad_.end()) {
            nodeOutstanding_[charged->second.first] -=
                charged->second.second;
            chargedLoad_.erase(charged);
        }
        convertConsumer(*c.pq, c.ti, reason, load_shed);
    }
    g.pusherCount = 0;
    g.converted = true;
    // The converted chunk now crosses the wire once to the
    // coordinator — admit it so later queries plan it as
    // "cached-local" instead of re-moving the bytes.
    const auto &[object, generation, chunk_id] = g.key;
    store_.admitChunkToCache(object, generation, chunk_id);
}

// ---- issue / drive ----

void
SharedScanScheduler::sealAtIssue(ExecEntry &entry)
{
    store_.obs().tracer.endSpan(entry.windowSpan);
    entry.windowSpan = 0;
    // Later arrivals must not join an issued transfer: the key (and
    // its chunk group) leave the window, starting a new generation.
    execWindow_.erase(entry.key);
    if (entry.group)
        groupWindow_.erase(*entry.group);
    // An issued pushdown's admission charge rides on the entry until
    // the storage node finishes the work.
    auto charged = chargedLoad_.find(entry.key);
    if (charged != chargedLoad_.end()) {
        entry.releaseNode = charged->second.first;
        entry.releaseSeconds = charged->second.second;
        chargedLoad_.erase(charged);
    }
}

void
SharedScanScheduler::releaseEntryLoad(ExecEntry &entry)
{
    if (entry.releaseSeconds > 0.0) {
        nodeOutstanding_[entry.releaseNode] -= entry.releaseSeconds;
        entry.releaseSeconds = 0.0;
    }
}

void
SharedScanScheduler::demand(const std::shared_ptr<PendingQuery> &pq,
                            bool projection, size_t ti,
                            const std::shared_ptr<sim::Join> &join)
{
    QueryPlan &plan = *pq->plan;
    const SimTask &task =
        projection ? plan.projectionTasks[ti] : plan.filterTasks[ti];
    const std::shared_ptr<ExecEntry> &entry =
        projection ? pq->projEntries[ti] : pq->filterEntries[ti];
    const size_t coordinator = plan.coordinatorId;
    sim::Cluster &cluster = store_.cluster();
    obs::Tracer &tracer = store_.obs().tracer;

    if (entry == nullptr || !entry->issued) {
        ++stats_.tasksIssued;
        tasksIssued_.add(1);
        ++stats_.perNode[task.nodeId].tasksIssued;
        if (entry == nullptr) {
            // Unkeyed: never shareable, runs alone.
            stages_.executeTask(task, coordinator, projection, plan.outcome,
                                join);
            return;
        }
        entry->issued = true;
        sealAtIssue(*entry);
        // The issuer's own join signal plus waiter fan-out.
        auto fanout = std::make_shared<sim::Join>(
            1, [this, entry, join]() {
                entry->done = true;
                releaseEntryLoad(*entry);
                join->signal();
                auto waiters = std::move(entry->waiters);
                entry->waiters.clear();
                for (auto &waiter : waiters)
                    waiter();
            });
        stages_.executeTask(task, coordinator, projection, plan.outcome,
                            fanout);
        return;
    }

    // Absorbed: the bytes are (or were) already on their way to this
    // coordinator. Pay only the per-consumer coordinator work (select
    // pass on the shared reply, or this task's own coord work when no
    // cheaper shared form exists).
    if (task.isPushdown()) {
        ++stats_.mergedPushdowns;
        mergedPushdowns_.add(1);
    } else {
        ++stats_.sharedFetches;
        sharedFetches_.add(1);
    }
    if (task.nodeId != coordinator) {
        uint64_t saved = task.requestBytes + task.replyBytes;
        stats_.wireBytesSaved += saved;
        wireBytesSaved_.add(saved);
    }
    double coord_work = task.consumerSelectWork > 0.0
                            ? task.consumerSelectWork
                            : task.coordCpuWork;
    plan.outcome.cpuSeconds +=
        coord_work / cluster.config().node.cpuRate;
    uint64_t wait_span = tracer.beginSpan(
        "sched_wait", "\"key\": \"" + task.shareKey + "\"");
    sim::StorageNode *coord = &cluster.node(coordinator);
    const double demanded = cluster.engine().now();
    auto complete = [this, coord, coord_work, join, wait_span,
                     demanded]() {
        queueWait_.observe(store_.cluster().engine().now() -
                                demanded);
        store_.obs().tracer.endSpan(wait_span);
        coord->cpu().acquire(coord_work, [join]() { join->signal(); });
    };
    if (entry->done)
        complete();
    else
        entry->waiters.push_back(std::move(complete));
}

void
SharedScanScheduler::complete(const std::shared_ptr<PendingQuery> &pq)
{
    QueryPlan &plan = *pq->plan;
    // Re-attach the amended EXPLAIN report. All of this query's chunk
    // groups are sealed by now, so the overrides are final.
    if (!pq->overrides.empty() && plan.outcome.explain != nullptr) {
        obs::QueryExplain amended = *plan.outcome.explain;
        for (auto &pc : amended.projections) {
            auto it = pq->overrides.find(pc.chunkId);
            if (it == pq->overrides.end())
                continue;
            pc.verdict = it->second.first;
            pc.reason = it->second.second;
        }
        plan.outcome.explain =
            std::make_shared<const obs::QueryExplain>(std::move(amended));
    }

    QueryHandle *h = pq->handle;
    h->outcome_ = plan.outcome;
    h->status_ = Status::ok();
    h->doneSeconds_ = store_.cluster().engine().now();
    h->state_ = QueryHandle::State::kDone;
    lastDoneSeconds_ = h->doneSeconds_;
    completed_.push_back(h);
    active_.erase(pq->seq);
}

void
SharedScanScheduler::startPending()
{
    while (!startQueue_.empty()) {
        auto pq = std::move(startQueue_.front());
        startQueue_.pop_front();
        // The store's stage DAG, with every task demanded through the
        // window; latency counts from admission, not from the start.
        stages_.simulateQuery(
            pq->plan, pq->submitSeconds,
            "\"seq\": " + std::to_string(pq->seq) +
                ", \"tag\": " + std::to_string(pq->handle->tag) + ", ",
            [this, pq](bool projection, size_t ti,
                       std::shared_ptr<sim::Join> join) {
                demand(pq, projection, ti, join);
            },
            [this, pq]() { complete(pq); });
    }
}

QueryHandle *
SharedScanScheduler::awaitAny()
{
    obs::Tracer &tracer = store_.obs().tracer;
    sim::SimEngine &engine = store_.cluster().engine();
    uint64_t span = tracer.beginSpan("handle_await", "\"mode\": \"any\"");
    startPending();
    while (completed_.empty() && engine.step())
        startPending();
    tracer.endSpan(span);
    if (completed_.empty())
        return nullptr;
    QueryHandle *h = completed_.front();
    completed_.pop_front();
    freeHandles_.push_back(h);
    return h;
}

void
SharedScanScheduler::awaitAll()
{
    obs::Tracer &tracer = store_.obs().tracer;
    sim::SimEngine &engine = store_.cluster().engine();
    uint64_t span = tracer.beginSpan("handle_await", "\"mode\": \"all\"");
    startPending();
    while (engine.step())
        startPending();
    tracer.endSpan(span);
    FUSION_CHECK_MSG(active_.empty(),
                     "await_all left queries in flight");
}

// ---- closed-batch compatibility wrappers ----

Result<std::vector<QueryOutcome>>
SharedScanScheduler::runBatch(const std::vector<query::Query> &batch)
{
    stats_ = BatchStats{};
    batches_.add(1);
    if (batch.empty())
        return std::vector<QueryOutcome>{};

    sim::Cluster &cluster = store_.cluster();
    obs::Tracer &tracer = store_.obs().tracer;
    const double batch_start = cluster.engine().now();

    std::vector<QueryHandle *> handles;
    handles.reserve(batch.size());
    for (const auto &q : batch)
        handles.push_back(submit(q));

    uint64_t batch_span = tracer.beginSpan(
        "shared_scan",
        "\"queries\": " + std::to_string(batch.size()) +
            ", \"tasks_planned\": " +
            std::to_string(stats_.tasksPlanned));
    awaitAll();
    stats_.makespanSeconds =
        lastDoneSeconds_ > batch_start ? lastDoneSeconds_ - batch_start
                                       : 0.0;
    tracer.endSpan(batch_span);

    std::vector<QueryOutcome> outcomes;
    outcomes.reserve(batch.size());
    Status error = Status::ok();
    for (QueryHandle *h : handles) {
        if (!h->status().isOk() && error.isOk())
            error = h->status();
        outcomes.push_back(h->outcome());
    }
    // Recycle the batch's handles back into the submit pool (outcomes
    // were copied out above, so reuse cannot clobber them).
    while (!completed_.empty()) {
        freeHandles_.push_back(completed_.front());
        completed_.pop_front();
    }
    if (!error.isOk())
        return error;
    return outcomes;
}

} // namespace fusion::sched
