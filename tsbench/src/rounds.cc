#include "rounds.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.h"

namespace tsbench {

void RunRounds(const RunConfig& config,
               const std::function<void(const RoundPlan&)>& round) {
  round(RoundPlan{0, true, false});
  const double start = NowSeconds();
  for (size_t measured = 0;
       measured < kMinRounds || NowSeconds() - start < config.seconds;
       ++measured) {
    // Trace pass: untraced, traced, untraced, ... so both kinds see the
    // same mix of host slow phases.
    round(RoundPlan{measured + 1, false, config.trace && measured % 2 == 1});
  }
}


void AddLatencies(std::vector<double> latencies_us, EndToEnd* e2e) {
  e2e->latency_samples += latencies_us.size();
  e2e->p50_us.push_back(Median(latencies_us));
  const Tail tail = TailPercentile(std::move(latencies_us));
  e2e->p99_us.push_back(tail.value);
  e2e->tail_percentile = std::min(e2e->tail_percentile, tail.percentile);
}

namespace {

void PrintSeries(const char* name, const std::vector<double>& values) {
  std::fprintf(stderr, "tsbench: per round %s:", name);
  for (double value : values) std::fprintf(stderr, " %.6g", value);
  std::fprintf(stderr, "\n");
}

}  // namespace

void EmitEndToEnd(const EndToEnd& e2e, RunResult* result) {
  result->Add("setup_s", e2e.setup_s, "s");
  result->Add("events_per_s", Highest(e2e.events_per_s), "events/s");
  result->Add("requests_per_s", Highest(e2e.requests_per_s), "req/s");
  result->Add("request_p50_us", Lowest(e2e.p50_us), "us");
  result->Add("request_p99_us", Lowest(e2e.p99_us), "us");
  result->Add("recover_s", Lowest(e2e.recover_s), "s");
  result->Add("server_rss_mb", e2e.server_rss_mb, "MB");
  std::fprintf(stderr,
               "tsbench: %zu measured rounds; %zu latency samples, tail "
               "percentile p%.2f; %zu recoveries\n",
               e2e.events_per_s.size(), e2e.latency_samples,
               100.0 * e2e.tail_percentile, e2e.recover_s.size());
  PrintSeries("events_per_s", e2e.events_per_s);
  PrintSeries("requests_per_s", e2e.requests_per_s);
  PrintSeries("request_p50_us", e2e.p50_us);
  PrintSeries("request_p99_us", e2e.p99_us);
  PrintSeries("recover_s", e2e.recover_s);
}

double TraceOverhead(const EndToEnd& e2e) {
  const double untraced = Highest(e2e.events_per_s);
  return untraced > 0 ? Highest(e2e.traced_events_per_s) / untraced : 0.0;
}

}  // namespace tsbench
