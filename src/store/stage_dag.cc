#include "stage_dag.h"

#include <array>

namespace fusion::store {

const char *
SimTask::label() const
{
    // Indexed by TaskKind.
    static const char *const kLabels[] = {
        "chunk_fetch",         "chunk_fetch", "filter_pushdown",
        "projection_pushdown", "projection_pushdown", "chunk_fetch",
        "delta_fetch",         "cached_local"};
    return kLabels[static_cast<size_t>(kind)];
}

bool
SimTask::isPushdown() const
{
    return kind == TaskKind::kFilterPushdown ||
           kind == TaskKind::kProjectionPushdown ||
           kind == TaskKind::kAggregatePushdown;
}

SimTask
StageDag::makeSharedFetchTask(const SimTask &pushdown) const
{
    FUSION_CHECK_MSG(pushdown.kind == TaskKind::kProjectionPushdown ||
                         pushdown.kind == TaskKind::kAggregatePushdown,
                     "not a per-chunk projection pushdown task");
    SimTask fetch = pushdown;
    fetch.kind = TaskKind::kChunkFetch;
    fetch.requestBytes = kRequestRpcBytes;
    fetch.diskBytes = pushdown.chunkStoredBytes;
    fetch.nodeCpuWork = 0.0;
    fetch.replyBytes = pushdown.chunkStoredBytes;
    fetch.coordCpuWork = pushdown.fetchDecodeWork;
    fetch.shareKey = "cfetch|" + shareName(fetch.object, fetch.generation) +
                     "|" + std::to_string(fetch.chunkId);
    return fetch;
}

void
StageDag::executeTask(const SimTask &task, size_t coordinator,
                      bool projection_stage, QueryOutcome &out,
                      std::shared_ptr<sim::Join> join)
{
    const sim::NodeConfig &nc = cluster_.config().node;
    obs::Counter &wire_request =
        projection_stage ? wireProjectionRequest_ : wireFilterRequest_;
    obs::Counter &wire_reply =
        projection_stage ? wireProjectionReply_ : wireFilterReply_;
    if (task.nodeId != coordinator) {
        out.networkBytes += task.requestBytes + task.replyBytes;
        out.networkSeconds +=
            static_cast<double>(task.requestBytes + task.replyBytes) /
                nc.nicBandwidth +
            2 * nc.rpcLatency;
        wire_request.add(task.requestBytes);
        wire_reply.add(task.replyBytes);
    }
    if (task.diskBytes > 0) {
        out.diskSeconds +=
            static_cast<double>(task.diskBytes) / nc.diskBandwidth +
            nc.diskSeekLatency;
    }
    out.cpuSeconds += (task.nodeCpuWork + task.coordCpuWork) / nc.cpuRate;

    sim::StorageNode *node = &cluster_.node(task.nodeId);
    sim::StorageNode *coord = &cluster_.node(coordinator);
    const double seek = nc.diskSeekLatency;

    // All DES callbacks run on the driver thread, so recording into the
    // tracer here is safe; the span covers the task's full simulated
    // lifetime (request, disk, node CPU, reply, coordinator CPU).
    uint64_t span = obs_.tracer.beginSpan(
        task.label(), "\"node\": " + std::to_string(task.nodeId) +
                          ", \"disk_bytes\": " +
                          std::to_string(task.diskBytes) +
                          ", \"reply_bytes\": " +
                          std::to_string(task.replyBytes));

    auto node_work = [this, node, coord, task, join, seek, span]() {
        node->disk().acquire(
            static_cast<double>(task.diskBytes),
            task.diskBytes ? seek : 0.0,
            [this, node, coord, task, join, span]() {
                node->cpu().acquire(task.nodeCpuWork, [this, node, coord,
                                                       task, join, span]() {
                    auto coord_work = [this, coord, task, join, span]() {
                        coord->cpu().acquire(task.coordCpuWork,
                                             [this, join, span]() {
                                                 obs_.tracer.endSpan(span);
                                                 join->signal();
                                             });
                    };
                    if (node == coord) {
                        coord_work();
                    } else {
                        cluster_.transfer(*node, *coord, task.replyBytes,
                                          std::move(coord_work));
                    }
                });
            });
    };

    if (task.nodeId == coordinator) {
        node_work();
    } else {
        cluster_.transfer(*coord, *node, task.requestBytes,
                          std::move(node_work));
    }
}

void
StageDag::streamWrite(size_t coordinator, uint64_t upload_bytes,
                      std::vector<std::pair<size_t, uint64_t>> writes,
                      std::function<void(double seconds)> done)
{
    sim::StorageNode *coord = &cluster_.node(coordinator);
    const double start = cluster_.engine().now();
    const double seek = cluster_.config().node.diskSeekLatency;
    auto fan_out = [this, writes = std::move(writes), coordinator, coord,
                    seek, start, done = std::move(done)]() mutable {
        auto join = std::make_shared<sim::Join>(
            writes.size(), [this, start, done = std::move(done)]() {
                done(cluster_.engine().now() - start);
            });
        for (const auto &[node_id, bytes] : writes) {
            sim::StorageNode *node = &cluster_.node(node_id);
            if (bytes == 0 || node_id == coordinator) {
                // Local blocks skip the network but still hit the disk.
                node->disk().acquire(static_cast<double>(bytes),
                                     bytes ? seek : 0.0,
                                     [join]() { join->signal(); });
                continue;
            }
            cluster_.transfer(*coord, *node, bytes,
                              [node, bytes, seek, join]() {
                                  node->disk().acquire(
                                      static_cast<double>(bytes), seek,
                                      [join]() { join->signal(); });
                              });
        }
    };
    cluster_.transfer(cluster_.client(), *coord, upload_bytes,
                      std::move(fan_out));
}

void
StageDag::simulateQuery(std::shared_ptr<QueryPlan> plan, double start_seconds,
                        const std::string &span_args, TaskDispatch dispatch,
                        std::function<void()> done)
{
    sim::StorageNode *client = &cluster_.client();
    sim::StorageNode *coord = &cluster_.node(plan->coordinatorId);

    // Stage span ids cross several DES callbacks; the array outlives
    // this frame via shared_ptr. [0]=query, [1]=filter, [2]=projection.
    auto spans = std::make_shared<std::array<uint64_t, 3>>();
    (*spans)[0] = obs_.tracer.beginSpan(
        "query", span_args + "\"filter_tasks\": " +
                     std::to_string(plan->filterTasks.size()) +
                     ", \"projection_tasks\": " +
                     std::to_string(plan->projectionTasks.size()));

    // At the client reply: the latency record (histogram, sliding
    // window, flight recorder) and the client exchange's wire charge.
    auto reply = [this, plan, done = std::move(done), start_seconds,
                  spans]() {
        const double now = cluster_.engine().now();
        const double latency = now - start_seconds;
        QueryOutcome &out = plan->outcome;
        out.latencySeconds = latency;
        queryLatency_.observe(latency);
        obs_.telemetry.window("query.latency_seconds").observe(now, latency);
        obs_.telemetry.flight().record(
            now, "query",
            "\"latency_seconds\": " + obs::formatDouble(latency));
        const sim::NodeConfig &nc = cluster_.config().node;
        const uint64_t bytes =
            kClientRequestBytes + plan->clientReplyBytes;
        out.networkBytes += bytes;
        out.networkSeconds +=
            static_cast<double>(bytes) / nc.nicBandwidth + 2 * nc.rpcLatency;
        wireClientRequest_.add(kClientRequestBytes);
        wireClientReply_.add(plan->clientReplyBytes);
        wireClientReplyPlain_.add(plan->clientReplyPlainBytes);
        obs_.tracer.endSpan((*spans)[0]);
        done();
    };

    // Inter-stage and reply CPU are summed after every task's own
    // costs: one fixed order keeps cpuSeconds bit-stable under any
    // dispatch. The reply is encoded at the coordinator and decoded at
    // the client, each paying clientReplyWork; zero work skips the
    // acquire, which would still wait for a free core.
    auto finish = [this, plan, reply, client, coord, spans]() {
        obs_.tracer.endSpan((*spans)[2]);
        const double rate = cluster_.config().node.cpuRate;
        const double work = plan->clientReplyWork;
        plan->outcome.cpuSeconds += plan->interStageCoordWork / rate;
        plan->outcome.cpuSeconds += work / rate; // coordinator encode
        plan->outcome.cpuSeconds += work / rate; // client decode
        const uint64_t span = obs_.tracer.beginSpan(
            "client_reply",
            "\"reply_bytes\": " + std::to_string(plan->clientReplyBytes) +
                ", \"plain_bytes\": " +
                std::to_string(plan->clientReplyPlainBytes));
        auto decoded = [this, reply, span]() {
            obs_.tracer.endSpan(span);
            reply();
        };
        auto decode = [client, work, decoded]() {
            if (work > 0.0)
                client->cpu().acquire(work, decoded);
            else
                decoded();
        };
        auto ship = [this, plan, client, coord, decode]() {
            cluster_.transfer(*coord, *client, plan->clientReplyBytes,
                              decode);
        };
        if (work > 0.0)
            coord->cpu().acquire(work, ship);
        else
            ship();
    };

    auto run_stage = [this, plan, dispatch = std::move(dispatch)](
                         bool projection, std::function<void()> next) {
        const std::vector<SimTask> &tasks =
            projection ? plan->projectionTasks : plan->filterTasks;
        auto join = std::make_shared<sim::Join>(tasks.size(), std::move(next));
        for (size_t ti = 0; ti < tasks.size(); ++ti) {
            if (dispatch)
                dispatch(projection, ti, join);
            else
                executeTask(tasks[ti], plan->coordinatorId, projection,
                            plan->outcome, join);
        }
    };

    auto projection_stage = [this, plan, finish, run_stage, coord,
                             spans]() {
        obs_.tracer.endSpan((*spans)[1]);
        (*spans)[2] = obs_.tracer.beginSpan("projection_stage");
        coord->cpu().acquire(plan->interStageCoordWork,
                             [run_stage, finish]() {
                                 run_stage(true, finish);
                             });
    };

    auto filter_stage = [this, run_stage, projection_stage, spans]() {
        (*spans)[1] = obs_.tracer.beginSpan("filter_stage");
        run_stage(false, projection_stage);
    };

    // Retry backoff against faulted nodes delays the whole plan (the
    // coordinator waited before falling back to reconstruction).
    auto start_plan = [this, plan, filter_stage]() {
        if (plan->extraLatencySeconds > 0.0)
            cluster_.engine().schedule(plan->extraLatencySeconds,
                                       filter_stage);
        else
            filter_stage();
    };

    cluster_.transfer(*client, *coord, kClientRequestBytes,
                      start_plan);
}

} // namespace fusion::store
