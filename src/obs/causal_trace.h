// Request-scoped causal tracing: a TraceContext (trace id + parent span
// id) travels WITH a request across threads — front-end admission, shard
// queues, the worker's pipeline, journal appends — and every hop records a
// CausalSpanRecord into one shared, thread-safe CausalTracer.  Linking the
// records by (trace_id, parent_span) reconstructs the full causal chain
// of a single request even when its hops ran on different threads.
//
// Determinism: trace ids come from a seeded counter owned by the serving
// layer and are consumed ONLY on successful admission, so journal replay
// (which sees exactly the admitted events) re-derives the same ids — the
// property tests/trace_recovery_test.cc pins down.  Span ids and
// timestamps are observational (they differ run to run); the CHAIN —
// which spans exist, their names, tracks, attributes, and parent/child
// edges per trace id — is what the differentials compare.
//
// Null-object contract: instrumented code holds `obs::CausalTracer*`
// defaulting to nullptr; StartCausalSpan(nullptr, ...) returns an inert
// span and RecordSpan on a null tracer is skipped by the caller, so the
// untraced path performs no clock reads and no allocations.

#ifndef HISTKANON_SRC_OBS_CAUSAL_TRACE_H_
#define HISTKANON_SRC_OBS_CAUSAL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace histkanon {
namespace obs {

class CausalTracer;

/// \brief The causal coordinates a request carries between hops: which
/// trace it belongs to and which span new child spans should attach to.
/// trace_id 0 is the "no identity" trace used for spans recorded before
/// an id was assigned (e.g. shed decisions — a shed request never
/// consumed an id, or replay would desynchronize).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

/// \brief One finished span.  start_ns is an ABSOLUTE MonotonicNanos
/// timestamp (all threads share the steady clock), so cross-thread spans
/// of one trace order correctly; exporters subtract the tracer's epoch.
struct CausalSpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;  ///< 0 = root.
  std::string name;
  /// Which logical track (thread/stage lane) the span ran on, e.g.
  /// "frontend", "shard_0", "ts".  Becomes the Chrome-trace thread.
  std::string track;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// \brief RAII handle over one open causal span.  Move-only; a
/// default-constructed CausalSpan is inert.  The record is held locally
/// until End() pushes it into the tracer, so an open span costs no lock.
class CausalSpan {
 public:
  CausalSpan() = default;
  CausalSpan(CausalSpan&& other) noexcept { *this = std::move(other); }
  CausalSpan& operator=(CausalSpan&& other) noexcept;
  CausalSpan(const CausalSpan&) = delete;
  CausalSpan& operator=(const CausalSpan&) = delete;
  ~CausalSpan() { End(); }

  bool active() const { return tracer_ != nullptr; }

  /// The context CHILD spans of this one should carry: same trace, this
  /// span as parent.  Valid while active (zeroes otherwise).
  TraceContext context() const {
    return TraceContext{record_.trace_id, record_.span_id};
  }
  uint64_t span_id() const { return record_.span_id; }

  void AddAttribute(std::string key, std::string value);

  /// Ends the span now and commits the record (idempotent).
  void End();

 private:
  friend class CausalTracer;
  CausalSpan(CausalTracer* tracer, CausalSpanRecord record)
      : tracer_(tracer), record_(std::move(record)) {}

  CausalTracer* tracer_ = nullptr;
  CausalSpanRecord record_;
};

/// \brief Thread-safe collector of causal span records.  Span-id
/// allocation is one relaxed atomic increment; committing a finished
/// record takes the mutex once.
class CausalTracer {
 public:
  CausalTracer() : epoch_ns_(MonotonicNanos()) {}
  CausalTracer(const CausalTracer&) = delete;
  CausalTracer& operator=(const CausalTracer&) = delete;

  /// Opens a span in `ctx`'s trace, child of ctx.parent_span.
  CausalSpan StartSpan(const TraceContext& ctx, std::string name,
                       std::string track);

  /// Records a span retroactively — for hops whose trace id is only known
  /// after they finish (admission: the id is allocated on success, so the
  /// admission span itself is recorded after the fact with the timing it
  /// measured).  Returns the new span's id so the caller can parent
  /// children to it.
  uint64_t RecordSpan(
      const TraceContext& ctx, std::string name, std::string track,
      int64_t start_ns, int64_t duration_ns,
      std::vector<std::pair<std::string, std::string>> attributes = {});

  /// All committed records, in commit order.
  std::vector<CausalSpanRecord> Records() const;
  size_t size() const;
  void Reset();

  int64_t epoch_ns() const { return epoch_ns_; }

  /// Chrome-trace / Perfetto JSON ("traceEvents" array): one "M"
  /// thread_name metadata event per track, one "X" complete event per
  /// span (timestamps relative to the tracer epoch, microseconds), and
  /// "s"/"f" flow events linking child to parent where the two ran on
  /// different tracks — so chrome://tracing and ui.perfetto.dev draw the
  /// cross-thread causal chain as arrows.
  std::string ToChromeTraceJson() const;

 private:
  friend class CausalSpan;
  void Commit(CausalSpanRecord record);

  const int64_t epoch_ns_;
  std::atomic<uint64_t> next_span_id_{1};
  mutable std::mutex mu_;
  std::vector<CausalSpanRecord> records_;
};

/// Null-safe span start: inert span when `tracer` is nullptr (no clock
/// read, no allocation).
inline CausalSpan StartCausalSpan(CausalTracer* tracer,
                                  const TraceContext& ctx, std::string name,
                                  std::string track) {
  return tracer == nullptr
             ? CausalSpan()
             : tracer->StartSpan(ctx, std::move(name), std::move(track));
}

}  // namespace obs
}  // namespace histkanon

#endif  // HISTKANON_SRC_OBS_CAUSAL_TRACE_H_
