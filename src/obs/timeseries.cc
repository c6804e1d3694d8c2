#include "timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "metrics.h"

namespace fusion::obs {

namespace {

// Telemetry tuning, in simulated seconds where a unit applies.
/** Span of every named sliding window. */
constexpr double kWindowSeconds = 0.25;
/** Half-life of the per-node retry/timeout penalty. */
constexpr double kPenaltyHalfLifeSeconds = 0.05;
/** Half-life of the per-node flap evidence (success-after-failure). */
constexpr double kFlapHalfLifeSeconds = 0.2;
/** Half-life of chunk-heat access counts. */
constexpr double kHeatHalfLifeSeconds = 0.5;
/** Penalty units that halve the health score. */
constexpr double kPenaltyScoreScale = 4.0;
/** Flight-recorder ring capacity (events). */
constexpr size_t kFlightCapacity = 256;
/** Retained flight dumps before new dumps are dropped. */
constexpr size_t kMaxFlightDumps = 16;

/** Minimal JSON string escape (quotes, backslashes, control bytes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Inclusive interpolated percentile over a sorted sample vector. */
double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    const double h =
        static_cast<double>(sorted.size() - 1) * p / 100.0;
    const size_t lo = static_cast<size_t>(h);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = h - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

} // namespace

// ---------------------------------------------------------------------
// WindowReducer
// ---------------------------------------------------------------------

WindowReducer::WindowReducer(double window_seconds)
    : window_(window_seconds)
{
}

void
WindowReducer::observe(double seconds, double value)
{
    advance(seconds);
    samples_.emplace_back(seconds, value);
}

void
WindowReducer::advance(double seconds)
{
    const double cutoff = seconds - window_;
    while (!samples_.empty() && samples_.front().first < cutoff)
        samples_.pop_front();
}

size_t
WindowReducer::count() const
{
    return samples_.size();
}

double
WindowReducer::rate() const
{
    if (window_ <= 0.0)
        return 0.0;
    return static_cast<double>(samples_.size()) / window_;
}

double
WindowReducer::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &[t, v] : samples_)
        sum += v;
    return sum / static_cast<double>(samples_.size());
}

double
WindowReducer::percentile(double p) const
{
    std::vector<double> sorted;
    sorted.reserve(samples_.size());
    for (const auto &[t, v] : samples_)
        sorted.push_back(v);
    std::sort(sorted.begin(), sorted.end());
    return sortedPercentile(sorted, p);
}

// ---------------------------------------------------------------------
// DecayCounter
// ---------------------------------------------------------------------

DecayCounter::DecayCounter(double half_life_seconds)
    : halfLife_(half_life_seconds)
{
}

void
DecayCounter::add(double seconds, double weight)
{
    value_ = valueAt(seconds) + weight;
    last_ = seconds;
}

double
DecayCounter::valueAt(double seconds) const
{
    if (value_ == 0.0)
        return 0.0;
    const double dt = seconds - last_;
    if (dt <= 0.0 || halfLife_ <= 0.0)
        return value_;
    return value_ * std::exp2(-dt / halfLife_);
}

// ---------------------------------------------------------------------
// NodeHealthTracker
// ---------------------------------------------------------------------

void
NodeHealthTracker::setNumNodes(size_t num_nodes)
{
    nodes_.clear();
    nodes_.reserve(num_nodes);
    for (size_t i = 0; i < num_nodes; ++i) {
        NodeState state;
        state.penalty = DecayCounter(kPenaltyHalfLifeSeconds);
        state.flap = DecayCounter(kFlapHalfLifeSeconds);
        nodes_.push_back(std::move(state));
    }
}

void
NodeHealthTracker::recordRetry(double seconds, size_t node,
                               double backoff_seconds)
{
    // Each retry costs one penalty unit; long backoffs (an already
    // degraded budget) weigh in proportionally so the blend reflects
    // wasted simulated time, not just attempt counts.
    (void)backoff_seconds;
    nodes_.at(node).penalty.add(seconds, 1.0);
}

void
NodeHealthTracker::recordTimeout(double seconds, size_t node)
{
    NodeState &state = nodes_.at(node);
    state.penalty.add(seconds, 4.0);
    state.consecutiveTimeouts += 1;
}

void
NodeHealthTracker::recordSuccess(double seconds, size_t node)
{
    NodeState &state = nodes_.at(node);
    if (state.consecutiveTimeouts == 0)
        return;
    // A success while a timeout streak was open is flap evidence: the
    // node came back between reads, so stretched retry budgets would
    // have paid off.
    state.flap.add(seconds, 1.0);
    state.consecutiveTimeouts = 0;
}

double
NodeHealthTracker::score(size_t node, double seconds) const
{
    const double p = nodes_.at(node).penalty.valueAt(seconds);
    if (p <= 0.0)
        return 1.0;
    return std::exp2(-p / kPenaltyScoreScale);
}

NodeHealthTracker::Band
NodeHealthTracker::band(size_t node, double seconds) const
{
    const NodeState &state = nodes_.at(node);
    if (state.consecutiveTimeouts == 0)
        return Band::kHealthy;
    if (state.flap.valueAt(seconds) > 0.25)
        return Band::kFlapping;
    return Band::kDead;
}

double
NodeHealthTracker::penalty(size_t node, double seconds) const
{
    return nodes_.at(node).penalty.valueAt(seconds);
}

double
NodeHealthTracker::flapEvidence(size_t node, double seconds) const
{
    return nodes_.at(node).flap.valueAt(seconds);
}

size_t
NodeHealthTracker::consecutiveTimeouts(size_t node) const
{
    return nodes_.at(node).consecutiveTimeouts;
}

const char *
NodeHealthTracker::bandName(Band band)
{
    switch (band) {
      case Band::kHealthy:
        return "healthy";
      case Band::kFlapping:
        return "flapping";
      case Band::kDead:
        return "dead";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// ChunkHeatTable
// ---------------------------------------------------------------------

void
ChunkHeatTable::recordAccess(double seconds, const std::string &object,
                             uint32_t chunk, double weight)
{
    auto key = std::make_pair(object, chunk);
    auto it = heat_.find(key);
    if (it == heat_.end())
        it = heat_.emplace(std::move(key),
                           DecayCounter(kHeatHalfLifeSeconds))
                 .first;
    it->second.add(seconds, weight);
}

double
ChunkHeatTable::heat(const std::string &object, uint32_t chunk,
                     double seconds) const
{
    auto it = heat_.find(std::make_pair(object, chunk));
    if (it == heat_.end())
        return 0.0;
    return it->second.valueAt(seconds);
}

void
ChunkHeatTable::evictObject(const std::string &object)
{
    for (auto it = heat_.begin(); it != heat_.end();) {
        const std::string &key = it->first.first;
        // Match the bare name plus its '@' aliases ("@g<gen>",
        // "@delta"), never a distinct object that merely shares a
        // prefix: object names cannot contain '@'.
        bool owned = key.size() >= object.size() &&
                     key.compare(0, object.size(), object) == 0 &&
                     (key.size() == object.size() ||
                      key[object.size()] == '@');
        if (owned)
            it = heat_.erase(it);
        else
            ++it;
    }
}

std::vector<ChunkHeatTable::HotChunk>
ChunkHeatTable::hottest(double seconds, size_t k) const
{
    std::vector<HotChunk> all;
    all.reserve(heat_.size());
    for (const auto &[key, counter] : heat_)
        all.push_back({key.first, key.second,
                       counter.valueAt(seconds)});
    std::sort(all.begin(), all.end(),
              [](const HotChunk &a, const HotChunk &b) {
                  if (a.heat != b.heat)
                      return a.heat > b.heat;
                  if (a.object != b.object)
                      return a.object < b.object;
                  return a.chunk < b.chunk;
              });
    if (all.size() > k)
        all.resize(k);
    return all;
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

void
FlightRecorder::record(double seconds, const char *kind,
                       std::string detail)
{
    if (!enabled_)
        return;
    Event event{seconds, kind, std::move(detail)};
    if (events_.size() < kFlightCapacity) {
        events_.push_back(std::move(event));
        return;
    }
    events_[head_] = std::move(event);
    head_ = (head_ + 1) % kFlightCapacity;
}

std::string
FlightRecorder::dump(double seconds, const std::string &reason)
{
    std::string out = "{\"seconds\": " + formatDouble(seconds) +
                      ", \"reason\": \"" + jsonEscape(reason) +
                      "\", \"events\": [";
    // Oldest first: the ring's overwrite cursor is the oldest slot.
    const size_t n = events_.size();
    for (size_t i = 0; i < n; ++i) {
        const Event &e = events_[(head_ + i) % n];
        if (i)
            out += ", ";
        out += "{\"seconds\": " + formatDouble(e.seconds) +
               ", \"kind\": \"" + e.kind + "\"";
        if (!e.detail.empty())
            out += ", " + e.detail;
        out += "}";
    }
    out += "]}";
    if (dumps_.size() < kMaxFlightDumps)
        dumps_.push_back(out);
    return out;
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

WindowReducer &
Telemetry::window(const std::string &name)
{
    auto it = windows_.find(name);
    if (it == windows_.end())
        it = windows_.emplace(name, WindowReducer(kWindowSeconds)).first;
    return it->second;
}

std::string
Telemetry::toJson(double seconds, size_t hottest_chunks)
{
    std::string out = "{\n  \"now\": " + formatDouble(seconds);

    out += ",\n  \"nodes\": [";
    for (size_t node = 0; node < health_.numNodes(); ++node) {
        if (node)
            out += ", ";
        out += "{\"node\": " + std::to_string(node) +
               ", \"band\": \"" +
               NodeHealthTracker::bandName(health_.band(node, seconds)) +
               "\", \"score\": " +
               formatDouble(health_.score(node, seconds)) +
               ", \"penalty\": " +
               formatDouble(health_.penalty(node, seconds)) +
               ", \"flap\": " +
               formatDouble(health_.flapEvidence(node, seconds)) + "}";
    }
    out += "]";

    out += ",\n  \"chunks\": [";
    const auto hot = heat_.hottest(seconds, hottest_chunks);
    for (size_t i = 0; i < hot.size(); ++i) {
        if (i)
            out += ", ";
        out += "{\"object\": \"" + jsonEscape(hot[i].object) +
               "\", \"chunk\": " + std::to_string(hot[i].chunk) +
               ", \"heat\": " + formatDouble(hot[i].heat) + "}";
    }
    out += "]";

    out += ",\n  \"windows\": [";
    bool first = true;
    for (auto &[name, w] : windows_) {
        w.advance(seconds);
        if (!first)
            out += ", ";
        first = false;
        out += "{\"name\": \"" + jsonEscape(name) +
               "\", \"count\": " + std::to_string(w.count()) +
               ", \"rate\": " + formatDouble(w.rate()) +
               ", \"mean\": " + formatDouble(w.mean()) +
               ", \"p50\": " + formatDouble(w.percentile(50.0)) +
               ", \"p95\": " + formatDouble(w.percentile(95.0)) +
               ", \"p99\": " + formatDouble(w.percentile(99.0)) + "}";
    }
    out += "]";

    out += ",\n  \"flight_dumps\": [";
    const auto &dumps = flight_.dumps();
    for (size_t i = 0; i < dumps.size(); ++i) {
        if (i)
            out += ", ";
        out += dumps[i];
    }
    out += "]\n}\n";
    return out;
}

} // namespace fusion::obs
