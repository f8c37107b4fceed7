// Span recording for the traced pass.  A span (layer, start, end, parent,
// request id) is recorded around each call the benchmark makes into, or
// intercepts from, one of the program's public seams.  Per-layer totals
// (calls, busy time, self time = span time minus the time its child spans
// cover, and a per-layer value such as bytes or users returned) are kept
// for every span; the raw spans of the first traced round are kept in
// memory and written to a Chrome-trace file at the end.
//
// A null recorder makes SpanScope inert: no clock read, no allocation —
// the untraced pass runs the same code without paying for it.

#ifndef TSBENCH_SRC_SPANS_H_
#define TSBENCH_SRC_SPANS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tsbench {

/// Raw spans kept for the trace file (about 10 MB of JSON).
inline constexpr size_t kKeptSpans = 200000;

enum class Layer : uint8_t {
  kTsUpdate,
  kTsRequest,
  kTsBatch,
  kTsCheckpoint,
  kTsRecover,
  kStindexNearest,
  kStindexRange,
  kModGetPhl,
  kModLtConsistent,
  kModCountIn,
  kModUsersIn,
  kDurAppend,
  kDurSync,
  kNetSend,
  kNetRecv,
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

/// "ts.update", "stindex.nearest", "mod.store.GetPhl", ...
const char* LayerName(Layer layer);

struct LayerTotals {
  uint64_t calls = 0;
  int64_t busy_ns = 0;
  int64_t self_ns = 0;
  uint64_t value = 0;
};
using Totals = std::array<LayerTotals, kLayerCount>;

struct SpanRecord {
  Layer layer = Layer::kTsUpdate;
  uint32_t thread = 0;
  /// Index of the parent span in the same thread's records (-1 = root).
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  uint64_t value = 0;
};

class SpanRecorder {
 public:
  /// Keeps at most `keep_limit` raw spans for the trace file.
  explicit SpanRecorder(size_t keep_limit);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Totals across threads; call only while no span is open.
  Totals TakeTotals();
  /// Raw spans are kept only while keeping is on.
  void SetKeeping(bool keeping) { keeping_.store(keeping); }
  /// The kept spans of every thread (threads numbered from 0).
  std::vector<std::vector<SpanRecord>> KeptSpans() const;

 private:
  friend class SpanScope;
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    int64_t kept_index;
    uint64_t request;
    uint64_t value;
  };
  struct ThreadState {
    uint32_t id = 0;
    std::vector<Frame> stack;
    Totals totals{};
    std::vector<SpanRecord> kept;
  };
  ThreadState* Local();

  const uint64_t uid_;
  const size_t keep_limit_;
  std::atomic<bool> keeping_{false};
  std::atomic<size_t> kept_count_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span; inert when the recorder is null.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, Layer layer, uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  /// The layer-specific value (bytes, users or entries returned).
  void set_value(uint64_t value);

 private:
  SpanRecorder::ThreadState* state_ = nullptr;
};

/// \brief One span of a foreign tracer (the program's obs::CausalTracer),
/// for self-time derivation.
struct ForeignSpan {
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
};
/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it (children may overlap when they ran
/// on other threads).  Returned in input order.
std::vector<int64_t> SelfTimes(const std::vector<ForeignSpan>& spans);

/// Writes kept spans as Chrome-trace JSON ("traceEvents", one complete
/// event per span; viewable in ui.perfetto.dev).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<SpanRecord>>& threads);

}  // namespace tsbench

#endif  // TSBENCH_SRC_SPANS_H_
