/**
 * @file
 * Simulated-time span tracer. Spans are stamped with the owning
 * store's sim::Engine clock (injected as a plain callback so this
 * layer stays dependency-free), which makes traces bit-identical
 * across thread counts and repeat runs: the discrete-event simulation
 * is deterministic, spans are only recorded from the simulation driver
 * thread (never from thread-pool workers), and the exporter uses fixed
 * formatting.
 *
 * Export is Chrome/Perfetto `trace_event` JSON ("X" complete events).
 * Overlapping spans — concurrent simulated tasks inside one query
 * stage — are laid out by assigning each span the lowest free lane
 * (tid), a deterministic greedy sweep, so every per-tid track is
 * properly nested.
 */
#ifndef FUSION_OBS_TRACE_H
#define FUSION_OBS_TRACE_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace fusion::obs {

/** One recorded span, in simulated seconds. */
struct TraceSpan {
    const char *name = "";
    double beginSeconds = 0.0;
    double endSeconds = -1.0;  // < begin means never ended
    std::string args;          // preformatted JSON object body, or ""
};

/** A named process worth of spans for multi-store trace files. */
struct TraceProcess {
    std::string name;
    std::vector<TraceSpan> spans;
};

/** Renders processes to a Chrome `trace_event` JSON document. */
std::string chromeTraceJson(const std::vector<TraceProcess> &processes);

/** Writes `text` to `path`; returns false (with stderr note) on I/O
 *  failure. */
bool writeTextFile(const std::string &path, const std::string &text);

/**
 * Span recorder. Disabled by default: beginSpan costs one branch and
 * returns 0, endSpan on id 0 is a no-op. Not thread-safe by design —
 * record only from the simulation driver thread.
 */
class Tracer
{
  public:
    using Clock = std::function<double()>;

    /** Installs the simulated-seconds clock (unset clock reads 0.0). */
    void setClock(Clock clock) { clock_ = std::move(clock); }

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Opens a span; returns its id (0 when disabled). `name` must
     *  outlive the tracer (string literals). */
    uint64_t
    beginSpan(const char *name, std::string args = std::string())
    {
        if (!enabled_)
            return 0;
        spans_.push_back({name, now(), -1.0, std::move(args)});
        return spans_.size();
    }

    void
    endSpan(uint64_t id)
    {
        if (id == 0)
            return;
        spans_[id - 1].endSeconds = now();
    }

    /** endSpan, attaching (or replacing) the span's args. */
    void
    endSpan(uint64_t id, std::string args)
    {
        if (id == 0)
            return;
        spans_[id - 1].endSeconds = now();
        spans_[id - 1].args = std::move(args);
    }

    /** Records a zero-duration span. */
    void
    instant(const char *name, std::string args = std::string())
    {
        if (!enabled_)
            return;
        double t = now();
        spans_.push_back({name, t, t, std::move(args)});
    }

    /** RAII span for synchronous scopes. */
    class Scoped
    {
      public:
        Scoped(Tracer &tracer, const char *name,
               std::string args = std::string())
            : tracer_(tracer), id_(tracer.beginSpan(name, std::move(args)))
        {
        }
        ~Scoped() { tracer_.endSpan(id_); }
        Scoped(const Scoped &) = delete;
        Scoped &operator=(const Scoped &) = delete;

      private:
        Tracer &tracer_;
        uint64_t id_;
    };

    size_t spanCount() const { return spans_.size(); }
    const std::vector<TraceSpan> &spans() const { return spans_; }

    /** Moves all recorded spans out (tracer keeps running). */
    std::vector<TraceSpan> takeSpans();

    /** Chrome trace JSON of this tracer's spans as one process. */
    std::string toChromeJson(const std::string &process_name) const;

    void clear() { spans_.clear(); }

  private:
    double now() const { return clock_ ? clock_() : 0.0; }

    Clock clock_;
    bool enabled_ = false;
    std::vector<TraceSpan> spans_;
};

} // namespace fusion::obs

#endif // FUSION_OBS_TRACE_H
