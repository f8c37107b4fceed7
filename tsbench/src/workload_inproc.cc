// The two in-process workloads, which differ only in their serve pass:
//
//  - commuter-serial: every request through TrustedServer::ProcessRequest,
//    with a file-backed write-ahead journal, a snapshot at 13:00 each day,
//    and recovery from the journal at the end;
//  - hotspot-batch: each epoch's requests as one ProcessBatch window, no
//    journal; recovery restores a snapshot of the final state.
//
// Both replay their epochs in epoch-normalized order (per epoch: every
// event's point ingested through ApplyLocationUpdate, then the requests
// served), which is also the order the oracle twin is fed.

#include <malloc.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "src/dur/sink.h"
#include "src/obs/metrics.h"
#include "report.h"
#include "rounds.h"
#include "seams.h"
#include "spans.h"
#include "stats.h"
#include "src/stindex/brute_force_index.h"
#include "src/ts/durability.h"
#include "src/ts/trusted_server.h"

namespace tsbench {
namespace {

namespace dur = histkanon::dur;
namespace obs = histkanon::obs;
namespace stindex = histkanon::stindex;
namespace ts = histkanon::ts;

const std::string kData = "q";

/// One round's server: the TrustedServer plus, in traced rounds, the
/// timing seams and registry it reads through; plus its journal.
struct Live {
  explicit Live(SpanRecorder* spans) : store(spans), index(spans) {}
  TimingStore store;
  TimingIndex index;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<ts::TrustedServer> server;
  std::unique_ptr<dur::FileSink> file;
  std::unique_ptr<TimingSink> sink;
  ts::TsJournal journal;
};

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void RegisterAll(const Workload& workload, ts::TrustedServer* server,
                 RunResult* result) {
  for (const auto& service : workload.services) {
    if (!server->RegisterService(service).ok()) {
      result->Fail("RegisterService failed");
    }
  }
  for (const UserSpec& user : workload.users) {
    if (!server->RegisterUser(user.id, user.policy).ok()) {
      result->Fail("RegisterUser failed");
    }
    if (user.lbqid != nullptr && !server->RegisterLbqid(user.id, *user.lbqid).ok()) {
      result->Fail("RegisterLbqid failed");
    }
  }
}

void Update(ts::TrustedServer* server, const Event& event, SpanRecorder* spans,
            Counts* counts) {
  SpanScope span(spans, Layer::kTsUpdate);
  ++counts->attempted;
  if (!server->ApplyLocationUpdate(event.user, event.point).ok()) {
    ++counts->failed;
  }
}

/// Set-up: build the server, register services, users and LBQIDs, open
/// the journal, load the starting history.
std::unique_ptr<Live> BuildLive(const Workload& workload,
                                const std::string& journal_path,
                                SpanRecorder* spans, RunResult* result,
                                Counts* counts) {
  auto live = std::make_unique<Live>(spans);
  ts::TrustedServerOptions options;
  if (spans != nullptr) {
    live->registry = std::make_unique<obs::Registry>();
    options.registry = live->registry.get();
    options.read_store = &live->store;
    options.read_index = &live->index;
  }
  live->server = std::make_unique<ts::TrustedServer>(options);
  live->store.Bind(&live->server->db());
  live->index.Bind(&live->server->index());
  if (!journal_path.empty()) {
    auto file = dur::FileSink::Open(journal_path);
    if (!file.ok()) {
      result->Fail("cannot open journal " + journal_path + ": " +
                   file.status().ToString());
      return nullptr;
    }
    live->file = std::move(file).ValueOrDie();
    dur::JournalSink* sink = live->file.get();
    if (spans != nullptr) {
      live->sink = std::make_unique<TimingSink>(spans, live->file.get());
      sink = live->sink.get();
    }
    if (!live->journal.AttachSink(sink).ok()) result->Fail("AttachSink failed");
    live->server->AttachJournal(&live->journal);
  }
  RegisterAll(workload, live->server.get(), result);
  for (const Event& event : workload.history) {
    Update(live->server.get(), event, spans, counts);
  }
  return live;
}

struct RoundOutput {
  double wall_s = 0.0;
  double serve_s = 0.0;
  uint64_t events = 0;
  uint64_t requests = 0;
  std::vector<double> latencies_us;
};

/// The timed phase: every epoch in epoch-normalized order.
RoundOutput Replay(const Workload& workload, bool batch, Live* live,
                   SpanRecorder* spans, Counts* counts) {
  RoundOutput out;
  ts::TrustedServer* server = live->server.get();
  size_t next_checkpoint = 0;
  uint64_t request_id = 0;
  std::vector<ts::BatchRequest> window;
  const int64_t begin = NowNs();
  int64_t serve_ns = 0;
  for (size_t e = 0; e < workload.epochs.size(); ++e) {
    const std::vector<Event>& epoch = workload.epochs[e];
    for (const Event& event : epoch) Update(server, event, spans, counts);
    out.events += epoch.size();
    if (batch) {
      window.clear();
      for (const Event& event : epoch) {
        if (event.kind != Event::Kind::kRequest) continue;
        window.push_back(
            ts::BatchRequest{event.user, event.point, event.service, kData});
      }
      const int64_t start = NowNs();
      std::vector<ts::ProcessOutcome> outcomes;
      {
        SpanScope span(spans, Layer::kTsBatch, ++request_id);
        span.set_value(window.size());
        outcomes = server->ProcessBatch(window);
      }
      const int64_t took = NowNs() - start;
      serve_ns += took;
      counts->attempted += window.size();
      for (const ts::ProcessOutcome& outcome : outcomes) {
        if (outcome.disposition == ts::Disposition::kRejected) ++counts->failed;
      }
      counts->failed += window.size() - outcomes.size();
      // Each request of a window waits for the whole window.
      out.latencies_us.insert(out.latencies_us.end(), window.size(),
                              static_cast<double>(took) * 1e-3);
      out.requests += window.size();
    } else {
      for (const Event& event : epoch) {
        if (event.kind != Event::Kind::kRequest) continue;
        const int64_t start = NowNs();
        ts::Disposition disposition;
        {
          SpanScope span(spans, Layer::kTsRequest, ++request_id);
          disposition = server->ProcessRequest(event.user, event.point,
                                               event.service, kData)
                            .disposition;
        }
        const int64_t took = NowNs() - start;
        serve_ns += took;
        out.latencies_us.push_back(static_cast<double>(took) * 1e-3);
        ++counts->attempted;
        if (disposition == ts::Disposition::kRejected) ++counts->failed;
        ++out.requests;
      }
    }
    if (next_checkpoint < workload.checkpoint_after.size() &&
        workload.checkpoint_after[next_checkpoint] == e) {
      ++next_checkpoint;
      SpanScope span(spans, Layer::kTsCheckpoint);
      const size_t before = live->journal.size();
      ++counts->attempted;
      if (!server->WriteCheckpoint().ok()) ++counts->failed;
      span.set_value(live->journal.size() - before);
    }
  }
  out.wall_s = static_cast<double>(NowNs() - begin) * 1e-9;
  out.serve_s = static_cast<double>(serve_ns) * 1e-9;
  // Events: every admitted location update (request points included, as
  // the ingest pass admits them) plus every request.
  out.events += out.requests;
  return out;
}

/// The answers of a server's outcome log, paired with the requests the
/// workload sent (in serve order).
std::vector<Answer> AnswersOf(const Workload& workload,
                              const ts::TrustedServer& server) {
  std::vector<Answer> answers;
  const std::vector<ts::ProcessOutcome>& outcomes = server.outcomes();
  size_t i = 0;
  for (const std::vector<Event>& epoch : workload.epochs) {
    for (const Event& event : epoch) {
      if (event.kind != Event::Kind::kRequest || i >= outcomes.size()) continue;
      answers.push_back(AnswerOf(event.user, event.service, outcomes[i++]));
    }
  }
  return answers;
}

/// The oracle: a twin serial server, per-request path, reading through a
/// BruteForceIndex the benchmark fills with exactly the samples the
/// twin's database accepts (strictly newer per user).
std::vector<Answer> RunOracle(const Workload& workload, RunResult* result) {
  stindex::BruteForceIndex brute;
  ts::TrustedServerOptions options;
  options.read_index = &brute;
  ts::TrustedServer twin(options);
  RegisterAll(workload, &twin, result);
  std::unordered_map<UserId, Instant> last;
  const auto ingest = [&](const Event& event) {
    const auto it = last.find(event.user);
    if (it == last.end() || it->second < event.point.t) {
      brute.Insert(event.user, event.point);
      last[event.user] = event.point.t;
    }
    (void)twin.ApplyLocationUpdate(event.user, event.point);
  };
  for (const Event& event : workload.history) ingest(event);
  for (const std::vector<Event>& epoch : workload.epochs) {
    for (const Event& event : epoch) ingest(event);
    for (const Event& event : epoch) {
      if (event.kind != Event::Kind::kRequest) continue;
      twin.ProcessRequest(event.user, event.point, event.service, kData);
    }
  }
  return AnswersOf(workload, twin);
}

/// Times rebuilding a round's server after its timed phase: recovery from
/// the journal file the round wrote (commuter-serial), or a restore of its
/// final Checkpoint() (hotspot-batch, no journal).  The live server is
/// freed first; the rebuilt server's Checkpoint() must equal the live
/// one's.  Returns the seconds the rebuild took, or a negative value.
double RecoverRound(bool batch, const std::string& journal_path,
                    std::unique_ptr<Live> live, bool traced,
                    LayerReport* layers, RunResult* result) {
  int64_t start = NowNs();
  auto blob = live->server->Checkpoint();
  const int64_t checkpoint_ns = NowNs() - start;
  if (!blob.ok()) {
    result->Fail("live Checkpoint failed: " + blob.status().ToString());
    return -1.0;
  }
  const std::string live_blob = std::move(blob).ValueOrDie();
  live.reset();
  std::string journal_bytes;
  if (!batch && !ReadFile(journal_path, &journal_bytes)) {
    result->Fail("cannot read back " + journal_path);
    return -1.0;
  }
  start = NowNs();
  std::unique_ptr<ts::TrustedServer> rebuilt;
  if (batch) {
    rebuilt = std::make_unique<ts::TrustedServer>();
    const auto status = rebuilt->RestoreFrom(live_blob, Granularities());
    if (!status.ok()) {
      result->Fail("RestoreFrom failed: " + status.ToString());
      return -1.0;
    }
  } else {
    auto recovered = ts::RecoverTrustedServer(
        journal_bytes, ts::TrustedServerOptions(), Granularities());
    if (!recovered.ok()) {
      result->Fail("RecoverTrustedServer failed: " +
                   recovered.status().ToString());
      return -1.0;
    }
    rebuilt = std::move(recovered->server);
  }
  const int64_t took = NowNs() - start;
  auto rebuilt_blob = rebuilt->Checkpoint();
  if (!rebuilt_blob.ok() || *rebuilt_blob != live_blob) {
    result->Fail("recovered server's Checkpoint() differs from the live "
                 "server's");
  }
  if (traced) {
    uint64_t replayed = 0;
    if (!batch) {
      auto scan = ts::ScanJournal(journal_bytes, Granularities());
      if (scan.ok()) replayed = scan->events.size();
    }
    layers->AddCheckpoint(checkpoint_ns, live_blob.size());
    layers->AddRecovery(took, batch ? live_blob.size() : journal_bytes.size(),
                        replayed);
  }
  return static_cast<double>(took) * 1e-9;
}

RunResult RunInProcess(const RunConfig& config, bool batch) {
  RunResult result;
  const Workload workload =
      batch ? MakeHotspotWorkload(config.seed) : MakeCommuterWorkload(config.seed);
  const double inputs_s = NowSeconds() - config.process_start;
  std::fprintf(stderr, "tsbench: inputs: %s\n", workload.Describe().c_str());
  const std::string journal_path =
      batch ? "" : config.out_dir + "/commuter-serial.journal";
  std::unique_ptr<SpanRecorder> recorder;
  if (config.trace) recorder = std::make_unique<SpanRecorder>(kKeptSpans);

  EndToEnd e2e;
  LayerReport layers;
  Counts counts;
  std::vector<Answer> answers;
  uint64_t first_digest = 0;
  bool kept_trace = false;

  RunRounds(config, [&](const RoundPlan& plan) {
    SpanRecorder* spans = plan.traced ? recorder.get() : nullptr;
    if (spans != nullptr && !kept_trace) spans->SetKeeping(true);
    // The first server's resident memory is its own: what the input
    // generator freed goes back to the system before the baseline.
    if (plan.warmup) malloc_trim(0);
    const double rss_before = ResidentMb();
    std::unique_ptr<Live> live =
        BuildLive(workload, journal_path, spans, &result, &counts);
    if (live == nullptr) return;
    if (plan.warmup) {
      e2e.setup_s = NowSeconds() - config.process_start;
      std::fprintf(stderr, "tsbench: set-up %.3f s, of which inputs %.3f s\n",
                   e2e.setup_s, inputs_s);
    }
    RoundOutput out = Replay(workload, batch, live.get(), spans, &counts);
    if (plan.warmup) e2e.server_rss_mb = ResidentMb() - rss_before;
    // Durability point of the round (outside the timed phase).
    if (!batch && !live->journal.Sync().ok()) result.Fail("journal sync failed");

    answers = AnswersOf(workload, *live->server);
    const uint64_t digest = DigestAnswers(answers);
    if (plan.warmup) first_digest = digest;
    if (digest != first_digest) {
      result.Fail("round " + std::to_string(plan.index) +
                  " answered differently from round 0");
    }
    TracedRound traced;
    if (plan.traced) {
      spans->SetKeeping(false);
      kept_trace = true;
      traced.wall_s = out.wall_s;
      traced.spans = spans->TakeTotals();
      traced.ReadRegistry(*live->registry);
    }
    // Each round's rebuild is one recover_s sample, so the samples spread
    // over the run like the rounds do.
    const double recover_s = RecoverRound(batch, journal_path, std::move(live),
                                          plan.traced, &layers, &result);
    if (plan.warmup) return;
    const double events_per_s = static_cast<double>(out.events) / out.wall_s;
    if (plan.traced) {
      layers.AddRound(traced);
      e2e.traced_events_per_s.push_back(events_per_s);
      return;
    }
    if (recover_s >= 0) e2e.recover_s.push_back(recover_s);
    e2e.events_per_s.push_back(events_per_s);
    e2e.requests_per_s.push_back(static_cast<double>(out.requests) / out.serve_s);
    AddLatencies(std::move(out.latencies_us), &e2e);
  });
  if (answers.empty()) {
    result.Fail("no round completed");
    return result;
  }

  // -- Output checks on the last round's answers (every round answered
  // identically, by digest).
  {
    const std::vector<Answer> oracle = RunOracle(workload, &result);
    std::vector<std::string> errors;
    CompareAnswers(answers, oracle, /*exact_identity=*/true,
                   "timed server vs BruteForceIndex oracle", &errors);
    if (DigestAnswers(oracle) != first_digest && errors.empty()) {
      errors.push_back("oracle digest differs from round 0");
    }
    SampleSet samples;
    AddWorkloadSamples(workload, &samples);
    size_t overshoots = 0;
    CheckProperties(answers, workload, samples, &errors, &overshoots);
    for (std::string& error : errors) result.Fail(std::move(error));
    std::fprintf(stderr, "tsbench: dispositions per round: %s\n",
                 DispositionSummary(answers).c_str());
    if (overshoots > 0) {
      std::fprintf(stderr,
                   "tsbench: note: %zu generalized contexts exceed their "
                   "tolerance by a rounding error (<= 1e-6 m)\n",
                   overshoots);
    }
  }

  std::fprintf(stderr, "tsbench: inputs digest %016llx\n",
               static_cast<unsigned long long>(workload.Digest()));
  if (!batch) std::remove(journal_path.c_str());
  result.attempted = counts.attempted;
  result.failed = counts.failed;
  if (config.trace) {
    layers.SetTraceOverhead(TraceOverhead(e2e));
    layers.Emit(&result);
    const std::string path = config.out_dir + "/" +
                             (batch ? "hotspot-batch" : "commuter-serial") +
                             ".trace.json";
    if (!WriteChromeTrace(path, recorder->KeptSpans())) {
      result.Fail("cannot write " + path);
    }
  } else {
    EmitEndToEnd(e2e, &result);
  }
  return result;
}

}  // namespace

RunResult RunCommuterSerial(const RunConfig& config) {
  return RunInProcess(config, /*batch=*/false);
}

RunResult RunHotspotBatch(const RunConfig& config) {
  return RunInProcess(config, /*batch=*/true);
}

}  // namespace tsbench
