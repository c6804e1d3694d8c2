/**
 * @file
 * Windowed telemetry over simulated time: sliding-window reducers
 * (count / rate / mean / interpolated percentiles), half-life decayed
 * accumulators, a per-node health tracker feeding the adaptive retry
 * and load-shedding policies, a decayed per-(object, chunk) heat table
 * for the fold-time re-stripe planner, and a crash-scoped flight
 * recorder. Window spans, half-lives, the health score scale and the
 * flight recorder's sizes are constants of timeseries.cc.
 *
 * Everything here is driven exclusively from the simulation driver
 * thread and stamped with simulated seconds, so dumps are byte-
 * identical for any FUSION_THREADS. Like metrics.h this header is
 * std-only (no fusion_common dependency — fusion_common links
 * fusion_obs, so anything here reaching back up would cycle); the
 * inclusive interpolated percentile is implemented locally with the
 * same rank convention as SampleHistogram::percentileInterpolated
 * (h = (n-1)·p/100, linear between the two straddling samples).
 */
#ifndef FUSION_OBS_TIMESERIES_H
#define FUSION_OBS_TIMESERIES_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fusion::obs {

/**
 * Sliding window of (seconds, value) samples. Samples must arrive in
 * non-decreasing time order (the DES driver guarantees this); eviction
 * happens on observe() and advance().
 */
class WindowReducer
{
  public:
    explicit WindowReducer(double window_seconds = 0.25);

    void observe(double seconds, double value);
    /** Drop samples older than seconds - window. */
    void advance(double seconds);

    size_t count() const;
    /** Samples per second over the window span. */
    double rate() const;
    /** Mean of resident samples; 0 when empty. */
    double mean() const;
    /**
     * Inclusive interpolated percentile of resident samples, p in
     * [0, 100]. 0 when empty; a single sample answers every p.
     */
    double percentile(double p) const;
    double windowSeconds() const { return window_; }

  private:
    double window_;
    std::deque<std::pair<double, double>> samples_;
};

/**
 * Exponentially decayed accumulator: add(t, w) first decays the value
 * by 2^(-(t - last)/halfLife), then adds w. valueAt(t) decays without
 * mutating. Times must be non-decreasing.
 */
class DecayCounter
{
  public:
    explicit DecayCounter(double half_life_seconds = 1.0);

    void add(double seconds, double weight);
    double valueAt(double seconds) const;
    double lastSeconds() const { return last_; }

  private:
    double halfLife_;
    double value_ = 0.0;
    double last_ = 0.0;
};

/**
 * Per-node health estimate blending decayed retry/timeout penalties
 * with flap evidence (a success observed while a timeout streak was
 * open). score() is exactly 1.0 for a node that never misbehaved, so
 * healthy runs are bit-identical with and without the tracker.
 */
class NodeHealthTracker
{
  public:
    enum class Band : uint8_t { kHealthy = 0, kFlapping = 1, kDead = 2 };

    /** Tracks `num_nodes` nodes, every one healthy. */
    void setNumNodes(size_t num_nodes);

    void recordRetry(double seconds, size_t node, double backoff_seconds);
    void recordTimeout(double seconds, size_t node);
    void recordSuccess(double seconds, size_t node);

    /** Health in (0, 1]; 2^(-penalty/scale), 1.0 when penalty is 0. */
    double score(size_t node, double seconds) const;
    Band band(size_t node, double seconds) const;
    double penalty(size_t node, double seconds) const;
    double flapEvidence(size_t node, double seconds) const;
    size_t consecutiveTimeouts(size_t node) const;
    size_t numNodes() const { return nodes_.size(); }

    static const char *bandName(Band band);

  private:
    struct NodeState {
        DecayCounter penalty;
        DecayCounter flap;
        size_t consecutiveTimeouts = 0;
    };

    std::vector<NodeState> nodes_;
};

/**
 * Decayed per-(object, chunk) access counts. Fed by cache lookups and
 * fetch/pushdown task creation; read by the fold-time re-stripe
 * planner (store::decideRestripe), Telemetry::toJson and bench_paper's
 * cache ablation.
 */
class ChunkHeatTable
{
  public:
    struct HotChunk {
        std::string object;
        uint32_t chunk = 0;
        double heat = 0.0;
    };

    void recordAccess(double seconds, const std::string &object,
                      uint32_t chunk, double weight = 1.0);
    double heat(const std::string &object, uint32_t chunk,
                double seconds) const;
    /** Top k by decayed heat (desc), ties broken by key (asc). */
    std::vector<HotChunk> hottest(double seconds, size_t k) const;
    size_t size() const { return heat_.size(); }

    /**
     * Drops every entry recorded for `object`, including its
     * generation-qualified ("name@gN") and delta-log ("name@delta")
     * aliases, so deleteObject and compaction swaps never leave stale
     * chunks for the re-stripe policy or the fusion_top leaderboard.
     */
    void evictObject(const std::string &object);

  private:
    std::map<std::pair<std::string, uint32_t>, DecayCounter> heat_;
};

/**
 * Fixed-size ring of recent telemetry events (256), dumped as
 * canonical JSON on degraded-read entry or a fault-schedule crash for
 * post-mortem diffing; the first 16 dumps are retained. Disabled by
 * default so the store's disabled-observability overhead guard is
 * unaffected.
 */
class FlightRecorder
{
  public:
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /**
     * Append one event. kind must be a string literal; detail is the
     * body of a JSON object ("\"node\": 3") or empty.
     */
    void record(double seconds, const char *kind, std::string detail);
    /** Render + retain a dump of the current ring; returns the JSON. */
    std::string dump(double seconds, const std::string &reason);

    const std::vector<std::string> &dumps() const { return dumps_; }
    size_t eventCount() const { return events_.size(); }

  private:
    struct Event {
        double seconds = 0.0;
        const char *kind = "";
        std::string detail;
    };

    bool enabled_ = false;
    size_t head_ = 0; // next slot to overwrite once the ring is full
    std::vector<Event> events_;
    std::vector<std::string> dumps_;
};

/**
 * The per-store telemetry bundle: node health, chunk heat, named
 * sliding windows and the flight recorder, with one canonical JSON
 * snapshot (sorted keys, %.17g doubles) for byte comparison.
 */
class Telemetry
{
  public:
    NodeHealthTracker &health() { return health_; }
    const NodeHealthTracker &health() const { return health_; }
    ChunkHeatTable &heat() { return heat_; }
    const ChunkHeatTable &heat() const { return heat_; }
    FlightRecorder &flight() { return flight_; }
    const FlightRecorder &flight() const { return flight_; }

    /** Named sliding window, created on first use. */
    WindowReducer &window(const std::string &name);

    /**
     * Canonical snapshot: {"now", "nodes", "chunks", "windows",
     * "flight_dumps"}. Windows are advanced to `seconds` first so two
     * snapshots at the same simulated time render identically.
     */
    std::string toJson(double seconds, size_t hottest_chunks = 10);

  private:
    NodeHealthTracker health_;
    ChunkHeatTable heat_;
    FlightRecorder flight_;
    std::map<std::string, WindowReducer> windows_;
};

} // namespace fusion::obs

#endif // FUSION_OBS_TIMESERIES_H
