#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace tsbench {
namespace {

std::atomic<uint64_t> g_next_recorder_uid{1};

// Per-thread cache of the thread's state in the current recorder.  The
// recorder owns the state; the uid (never reused) tells a stale cache
// from a live one.
thread_local uint64_t t_owner_uid = 0;
thread_local void* t_state = nullptr;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTsUpdate:
      return "ts.update";
    case Layer::kTsRequest:
      return "ts.request";
    case Layer::kTsBatch:
      return "ts.batch";
    case Layer::kTsCheckpoint:
      return "ts.checkpoint";
    case Layer::kTsRecover:
      return "ts.recover";
    case Layer::kStindexNearest:
      return "stindex.nearest";
    case Layer::kStindexRange:
      return "stindex.range";
    case Layer::kModGetPhl:
      return "mod.store.GetPhl";
    case Layer::kModLtConsistent:
      return "mod.store.LtConsistentUsers";
    case Layer::kModCountIn:
      return "mod.store.CountUsersWithSampleIn";
    case Layer::kModUsersIn:
      return "mod.store.UsersWithSampleIn";
    case Layer::kDurAppend:
      return "dur.append";
    case Layer::kDurSync:
      return "dur.sync";
    case Layer::kNetSend:
      return "net.send";
    case Layer::kNetRecv:
      return "net.recv";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(size_t keep_limit)
    : uid_(g_next_recorder_uid.fetch_add(1)), keep_limit_(keep_limit) {}

SpanRecorder::ThreadState* SpanRecorder::Local() {
  if (t_owner_uid == uid_) return static_cast<ThreadState*>(t_state);
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadState>());
  threads_.back()->id = static_cast<uint32_t>(threads_.size() - 1);
  t_owner_uid = uid_;
  t_state = threads_.back().get();
  return threads_.back().get();
}

Totals SpanRecorder::TakeTotals() {
  std::lock_guard<std::mutex> lock(mu_);
  Totals sum{};
  for (const std::unique_ptr<ThreadState>& state : threads_) {
    for (size_t i = 0; i < kLayerCount; ++i) {
      sum[i].calls += state->totals[i].calls;
      sum[i].busy_ns += state->totals[i].busy_ns;
      sum[i].self_ns += state->totals[i].self_ns;
      sum[i].value += state->totals[i].value;
    }
    state->totals = Totals{};
  }
  return sum;
}

std::vector<std::vector<SpanRecord>> SpanRecorder::KeptSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<SpanRecord>> out;
  for (const std::unique_ptr<ThreadState>& state : threads_) {
    out.push_back(state->kept);
  }
  return out;
}

SpanScope::SpanScope(SpanRecorder* recorder, Layer layer, uint64_t request) {
  if (recorder == nullptr) return;
  state_ = recorder->Local();
  int64_t kept_index = -1;
  const int64_t start = NowNs();
  if (recorder->keeping_.load(std::memory_order_relaxed) &&
      recorder->kept_count_.fetch_add(1, std::memory_order_relaxed) <
          recorder->keep_limit_) {
    SpanRecord record;
    record.layer = layer;
    record.thread = state_->id;
    record.start_ns = start;
    record.request = request;
    for (auto it = state_->stack.rbegin(); it != state_->stack.rend(); ++it) {
      if (it->kept_index >= 0) {
        record.parent = it->kept_index;
        break;
      }
    }
    kept_index = static_cast<int64_t>(state_->kept.size());
    state_->kept.push_back(record);
  }
  state_->stack.push_back(
      SpanRecorder::Frame{layer, start, 0, kept_index, request, 0});
}

void SpanScope::set_value(uint64_t value) {
  if (state_ != nullptr) state_->stack.back().value = value;
}

SpanScope::~SpanScope() {
  if (state_ == nullptr) return;
  const int64_t end = NowNs();
  const SpanRecorder::Frame frame = state_->stack.back();
  state_->stack.pop_back();
  const int64_t duration = end - frame.start_ns;
  LayerTotals& totals = state_->totals[static_cast<size_t>(frame.layer)];
  ++totals.calls;
  totals.busy_ns += duration;
  // Same-thread children nest and never overlap, so their summed
  // durations are exactly the part of this span they cover.
  totals.self_ns += duration - frame.child_ns;
  totals.value += frame.value;
  if (!state_->stack.empty()) state_->stack.back().child_ns += duration;
  if (frame.kept_index >= 0) {
    SpanRecord& record = state_->kept[static_cast<size_t>(frame.kept_index)];
    record.end_ns = end;
    record.value = frame.value;
  }
}

std::vector<int64_t> SelfTimes(const std::vector<ForeignSpan>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const ForeignSpan& span : spans) {
    const auto it = index_of.find(span.parent);
    if (span.parent == 0 || it == index_of.end()) continue;
    children[it->second].emplace_back(span.start_ns,
                                      span.start_ns + span.duration_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = lo + spans[i].duration_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = spans[i].duration_ns - covered;
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<SpanRecord>>& threads) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  int64_t epoch = 0;
  bool first_span = true;
  for (const std::vector<SpanRecord>& spans : threads) {
    for (const SpanRecord& span : spans) {
      if (first_span || span.start_ns < epoch) epoch = span.start_ns;
      first_span = false;
    }
  }
  std::fprintf(file, "{\"traceEvents\":[");
  bool first = true;
  for (const std::vector<SpanRecord>& spans : threads) {
    for (const SpanRecord& span : spans) {
      if (span.end_ns == 0) continue;  // still open when the round ended
      std::fprintf(
          file,
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
          "\"parent\":%lld,\"value\":%llu}}",
          first ? "" : ",", LayerName(span.layer), span.thread,
          static_cast<double>(span.start_ns - epoch) / 1e3,
          static_cast<double>(span.end_ns - span.start_ns) / 1e3,
          static_cast<unsigned long long>(span.request),
          static_cast<long long>(span.parent),
          static_cast<unsigned long long>(span.value));
      first = false;
    }
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace tsbench
