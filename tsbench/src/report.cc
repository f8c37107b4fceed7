#include "report.h"

#include <utility>

namespace tsbench {
namespace {

/// The program's stage histograms and the layer names they report under.
const std::pair<const char*, const char*> kStages[] = {
    {"lbqid.match", "ts_stage_lbqid_match_seconds"},
    {"anon.generalize", "ts_stage_generalize_seconds"},
    {"anon.hka", "ts_stage_hka_eval_seconds"},
    {"anon.randomize", "ts_stage_randomize_seconds"},
    {"anon.unlink", "ts_stage_unlink_seconds"},
    {"ts.forward", "ts_stage_forward_seconds"},
};

/// obs::CausalTracer span names of the sharded path, and their layers.
const std::pair<const char*, const char*> kCausal[] = {
    {"ts.cs.admission", "admission"},
    {"ts.cs.journal_append", "journal_append"},
    {"ts.cs.queue_wait", "queue_wait"},
    {"ts.cs.shard_serve", "shard_serve"},
};

template <typename Map>
auto ValueOr(const Map& map, const std::string& key) ->
    typename Map::mapped_type {
  const auto it = map.find(key);
  return it == map.end() ? typename Map::mapped_type{} : it->second;
}

}  // namespace

void TracedRound::ReadRegistry(const histkanon::obs::Registry& registry) {
  for (const auto& [name, histogram] : registry.Histograms()) {
    histogram_sums[name] += histogram->sum();
    histogram_counts[name] += histogram->count();
  }
  for (const auto& [name, value] : registry.CounterValues()) {
    counters[name] += value;
  }
}

void LayerReport::AddRound(const TracedRound& round) {
  ++rounds_;
  wall_s_ += round.wall_s;
  for (size_t i = 0; i < kLayerCount; ++i) {
    sum_.spans[i].calls += round.spans[i].calls;
    sum_.spans[i].busy_ns += round.spans[i].busy_ns;
    sum_.spans[i].self_ns += round.spans[i].self_ns;
    sum_.spans[i].value += round.spans[i].value;
  }
  for (const auto& [name, value] : round.histogram_sums) {
    sum_.histogram_sums[name] += value;
  }
  for (const auto& [name, value] : round.histogram_counts) {
    sum_.histogram_counts[name] += value;
  }
  for (const auto& [name, value] : round.counters) sum_.counters[name] += value;
  for (const auto& [name, value] : round.causal_self_ns) {
    sum_.causal_self_ns[name] += value;
  }
  for (const auto& [name, value] : round.causal_calls) {
    sum_.causal_calls[name] += value;
  }
  sum_.frames_sent += round.frames_sent;
  sum_.frames_received += round.frames_received;
  sum_.bytes_sent += round.bytes_sent;
  sum_.bytes_received += round.bytes_received;
  sum_.windows += round.windows;
  sum_.window_requests += round.window_requests;
  sum_.open_loop_sends += round.open_loop_sends;
  sum_.open_loop_late_sends += round.open_loop_late_sends;
  const LayerTotals& checkpoint =
      round.spans[static_cast<size_t>(Layer::kTsCheckpoint)];
  checkpoints_ += checkpoint.calls;
  checkpoint_ns_ += checkpoint.busy_ns;
  checkpoint_bytes_ += checkpoint.value;
}

void LayerReport::AddCheckpoint(int64_t busy_ns, uint64_t bytes) {
  ++checkpoints_;
  checkpoint_ns_ += busy_ns;
  checkpoint_bytes_ += bytes;
}

void LayerReport::AddRecovery(int64_t busy_ns, uint64_t bytes,
                              uint64_t replayed_events) {
  ++recoveries_;
  recover_ns_ += busy_ns;
  recover_bytes_ += bytes;
  recover_events_ += replayed_events;
}

void LayerReport::Emit(RunResult* result) const {
  const double rounds = rounds_ == 0 ? 1.0 : static_cast<double>(rounds_);
  const auto per_round = [&](double value) { return value / rounds; };
  const auto share = [&](double ns) {
    return wall_s_ > 0 ? 100.0 * ns * 1e-9 / wall_s_ : 0.0;
  };
  const auto mean = [](double total, uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const auto span = [&](Layer layer) -> const LayerTotals& {
    return sum_.spans[static_cast<size_t>(layer)];
  };
  const auto calls_and_busy = [&](Layer layer) {
    const std::string name = LayerName(layer);
    result->Add(name + ".calls", per_round(span(layer).calls), "count");
    result->Add(name + ".busy_share", share(span(layer).busy_ns), "%");
  };

  for (const Layer layer : {Layer::kTsUpdate, Layer::kTsRequest}) {
    calls_and_busy(layer);
    result->Add(std::string(LayerName(layer)) + ".self_share",
                share(span(layer).self_ns), "%");
  }
  result->Add("ts.batch.windows", per_round(span(Layer::kTsBatch).calls),
              "count");
  result->Add("ts.batch.requests", per_round(span(Layer::kTsBatch).value),
              "count");
  result->Add("ts.batch.busy_share", share(span(Layer::kTsBatch).busy_ns), "%");
  result->Add("ts.batch.self_share", share(span(Layer::kTsBatch).self_ns), "%");
  result->Add("ts.checkpoint.calls", per_round(span(Layer::kTsCheckpoint).calls),
              "count");
  result->Add("ts.checkpoint.mean_ms",
              mean(static_cast<double>(checkpoint_ns_) * 1e-6, checkpoints_),
              "ms");
  result->Add("ts.checkpoint.bytes",
              mean(static_cast<double>(checkpoint_bytes_), checkpoints_),
              "bytes");
  result->Add("ts.recover.mean_ms",
              mean(static_cast<double>(recover_ns_) * 1e-6, recoveries_), "ms");
  result->Add("ts.recover.bytes",
              mean(static_cast<double>(recover_bytes_), recoveries_), "bytes");
  result->Add("ts.recover.replayed_events",
              mean(static_cast<double>(recover_events_), recoveries_), "count");

  calls_and_busy(Layer::kStindexNearest);
  result->Add("stindex.nearest.users",
              per_round(span(Layer::kStindexNearest).value), "count");
  calls_and_busy(Layer::kStindexRange);
  result->Add("stindex.range.entries",
              per_round(span(Layer::kStindexRange).value), "count");
  result->Add("stindex.grid.nearest_queries",
              per_round(ValueOr(sum_.counters,
                                "stindex_grid_nearest_queries_total")),
              "count");
  for (const Layer layer : {Layer::kModGetPhl, Layer::kModLtConsistent,
                            Layer::kModCountIn, Layer::kModUsersIn}) {
    calls_and_busy(layer);
  }

  for (const auto& [name, histogram] : kStages) {
    result->Add(std::string(name) + ".calls",
                per_round(ValueOr(sum_.histogram_counts, histogram)), "count");
    result->Add(std::string(name) + ".busy_share",
                share(ValueOr(sum_.histogram_sums, histogram) * 1e9), "%");
  }
  const double hits = ValueOr(sum_.counters, "anon_cache_hits_total");
  const double misses = ValueOr(sum_.counters, "anon_cache_misses_total");
  result->Add("anon.cache.hit_ratio", mean(hits, hits + misses), "ratio");
  result->Add("anon.generalize.failures",
              per_round(ValueOr(sum_.counters, "anon_generalize_failures_total")),
              "count");
  result->Add("lbqid.monitor.observations",
              per_round(ValueOr(sum_.counters,
                                "lbqid_monitor_observations_total")),
              "count");

  calls_and_busy(Layer::kDurAppend);
  result->Add("dur.append.bytes", per_round(span(Layer::kDurAppend).value),
              "bytes");
  calls_and_busy(Layer::kDurSync);

  result->Add("net.frames_sent", per_round(sum_.frames_sent), "count");
  result->Add("net.frames_received", per_round(sum_.frames_received), "count");
  result->Add("net.bytes_sent", per_round(sum_.bytes_sent), "bytes");
  result->Add("net.bytes_received", per_round(sum_.bytes_received), "bytes");
  result->Add("net.windows", per_round(sum_.windows), "count");
  result->Add("net.window.requests_mean",
              mean(sum_.window_requests, sum_.windows), "ratio");
  result->Add("net.send.busy_share", share(span(Layer::kNetSend).busy_ns), "%");
  result->Add("net.recv.busy_share", share(span(Layer::kNetRecv).busy_ns), "%");
  result->Add("net.open_loop.late_sends",
              100.0 * mean(sum_.open_loop_late_sends, sum_.open_loop_sends),
              "%");
  // The sharded path's causal spans overlap across threads, so their
  // shares are of the whole causal chain's self time, not of wall time.
  double causal_total = 0.0;
  for (const auto& [name, ns] : sum_.causal_self_ns) {
    causal_total += static_cast<double>(ns);
  }
  for (const auto& [name, span_name] : kCausal) {
    result->Add(std::string(name) + ".self_share",
                causal_total > 0
                    ? 100.0 *
                          static_cast<double>(
                              ValueOr(sum_.causal_self_ns, span_name)) /
                          causal_total
                    : 0.0,
                "%");
  }
  result->Add("ts.cs.shard_serve.calls",
              per_round(ValueOr(sum_.causal_calls, "shard_serve")), "count");
  result->Add("obs.trace_overhead", trace_overhead_, "ratio");
}

}  // namespace tsbench
