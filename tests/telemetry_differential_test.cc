// The telemetry plane's null-object contract, run in the ON direction:
// attaching the full observability stack (causal tracer, SLO view,
// metrics registry, event sink) must not move a single
// answer.  Serial, batched, and sharded runs with telemetry ON produce
// outcomes and Checkpoint() bytes identical to untraced runs of the
// same workload.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/causal_trace.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/trusted_server.h"
#include "src/ts/workload.h"

namespace histkanon {
namespace ts {
namespace {

/// The full serial observability stack, owned together so one fixture
/// value keeps every pointer in TrustedServerOptions alive.
struct TelemetryStack {
  obs::Registry registry;
  obs::VectorEventSink events;
  obs::CausalTracer causal;
  obs::SloView slo;

  void AttachAll(TrustedServerOptions* options) {
    options->registry = &registry;
    options->event_sink = &events;
    options->causal = &causal;
    options->slo = &slo;
  }
};

SyntheticWorkloadOptions SmallWorkload() {
  SyntheticWorkloadOptions options;
  options.num_users = 16;
  options.num_epochs = 4;
  options.requests_per_epoch = 24;
  options.seed = 808;
  return options;
}

void ExpectSameOutcomes(const std::vector<ProcessOutcome>& a,
                        const std::vector<ProcessOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].disposition, b[i].disposition) << "request " << i;
    EXPECT_EQ(a[i].forwarded, b[i].forwarded) << "request " << i;
    EXPECT_EQ(a[i].hk_anonymity, b[i].hk_anonymity) << "request " << i;
    EXPECT_EQ(a[i].matched_lbqid, b[i].matched_lbqid) << "request " << i;
    EXPECT_EQ(a[i].lbqid_completed, b[i].lbqid_completed) << "request " << i;
    if (a[i].forwarded && b[i].forwarded) {
      EXPECT_EQ(a[i].forwarded_request.context.area.min_x,
                b[i].forwarded_request.context.area.min_x)
          << "request " << i;
      EXPECT_EQ(a[i].forwarded_request.context.area.max_x,
                b[i].forwarded_request.context.area.max_x)
          << "request " << i;
      EXPECT_EQ(a[i].forwarded_request.context.time.lo,
                b[i].forwarded_request.context.time.lo)
          << "request " << i;
      EXPECT_EQ(a[i].forwarded_request.context.time.hi,
                b[i].forwarded_request.context.time.hi)
          << "request " << i;
      EXPECT_EQ(a[i].forwarded_request.pseudonym,
                b[i].forwarded_request.pseudonym)
          << "request " << i;
    }
  }
}

TEST(TelemetryDifferentialTest, SerialOutcomesAndCheckpointIdentical) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallWorkload());

  TrustedServer plain{TrustedServerOptions{}};
  const std::vector<ProcessOutcome> reference =
      ReplayEpochsSerial(workload, &plain);

  TelemetryStack stack;
  TrustedServerOptions traced_options;
  stack.AttachAll(&traced_options);
  TrustedServer traced(traced_options);
  const std::vector<ProcessOutcome> observed =
      ReplayEpochsSerial(workload, &traced);

  ExpectSameOutcomes(reference, observed);
  // The telemetry plane left real footprints...
  EXPECT_GT(stack.causal.size(), 0u);
  EXPECT_GT(stack.events.lines().size(), 0u);
  // ...but none of them in the snapshot: Checkpoint() bytes identical.
  const auto plain_blob = plain.Checkpoint();
  const auto traced_blob = traced.Checkpoint();
  ASSERT_TRUE(plain_blob.ok());
  ASSERT_TRUE(traced_blob.ok());
  EXPECT_EQ(*plain_blob, *traced_blob);
}

TEST(TelemetryDifferentialTest, BatchOutcomesIdenticalWithTracingOn) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallWorkload());

  auto run = [&workload](bool traced) {
    TelemetryStack stack;
    TrustedServerOptions options;
    if (traced) stack.AttachAll(&options);
    TrustedServer server(options);
    for (const anon::ServiceProfile& service : workload.services) {
      (void)server.RegisterService(service).ok();
    }
    std::vector<ProcessOutcome> outcomes;
    for (const std::vector<WorkloadEvent>& epoch : workload.epochs) {
      // Ingest pass, as ReplayEpochsSerial does it.
      for (const WorkloadEvent& event : epoch) {
        switch (event.kind) {
          case WorkloadEvent::Kind::kUpdate:
          case WorkloadEvent::Kind::kRequest:
            server.OnLocationUpdate(event.user, event.point);
            break;
          case WorkloadEvent::Kind::kRegisterUser:
            (void)server.RegisterUser(event.user, event.policy).ok();
            break;
          case WorkloadEvent::Kind::kRegisterLbqid:
            if (event.lbqid != nullptr) {
              (void)server.RegisterLbqid(event.user, *event.lbqid).ok();
            }
            break;
          case WorkloadEvent::Kind::kSetRules:
            if (event.rules != nullptr) {
              (void)server.SetUserRules(event.user, *event.rules).ok();
            }
            break;
        }
      }
      // Serve pass: the epoch's requests as one batch window.
      std::vector<BatchRequest> batch;
      for (const WorkloadEvent& event : epoch) {
        if (event.kind != WorkloadEvent::Kind::kRequest) continue;
        BatchRequest request;
        request.user = event.user;
        request.exact = event.point;
        request.service = event.service;
        request.data = event.data;
        batch.push_back(request);
      }
      const std::vector<ProcessOutcome> window = server.ProcessBatch(batch);
      outcomes.insert(outcomes.end(), window.begin(), window.end());
    }
    return outcomes;
  };

  ExpectSameOutcomes(run(false), run(true));
}

TEST(TelemetryDifferentialTest, ShardedOutcomesAndCheckpointIdentical) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallWorkload());

  // Drives the workload exactly like ReplayEpochsConcurrent, but takes a
  // Checkpoint() after the last epoch closes (Finish() would forbid it).
  auto drive = [&workload](ConcurrentServer* server, std::string* blob) {
    for (const anon::ServiceProfile& service : workload.services) {
      (void)server->RegisterService(service).ok();
    }
    for (const std::vector<WorkloadEvent>& epoch : workload.epochs) {
      for (const WorkloadEvent& event : epoch) {
        switch (event.kind) {
          case WorkloadEvent::Kind::kUpdate:
            server->SubmitLocationUpdate(event.user, event.point);
            break;
          case WorkloadEvent::Kind::kRequest:
            server->SubmitRequest(event.user, event.point, event.service,
                                  event.data);
            break;
          case WorkloadEvent::Kind::kRegisterUser:
            server->SubmitRegisterUser(event.user, event.policy);
            break;
          case WorkloadEvent::Kind::kRegisterLbqid:
            if (event.lbqid != nullptr) {
              server->SubmitRegisterLbqid(event.user, *event.lbqid);
            }
            break;
          case WorkloadEvent::Kind::kSetRules:
            if (event.rules != nullptr) {
              server->SubmitSetUserRules(event.user, *event.rules);
            }
            break;
        }
      }
      server->EndEpoch();
    }
    const auto checkpoint = server->Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    *blob = *checkpoint;
    server->Finish();
  };

  ConcurrentServerOptions plain_options;
  plain_options.num_shards = 4;
  plain_options.server.per_request_randomization = true;
  ConcurrentServer plain(plain_options);
  std::string plain_blob;
  drive(&plain, &plain_blob);

  // Only the internally-synchronized collectors cross shard threads;
  // the per-shard Tracer/EventSink stay off exactly as the sharded
  // server enforces.
  obs::CausalTracer causal;
  obs::SloView slo;
  ConcurrentServerOptions traced_options;
  traced_options.num_shards = 4;
  traced_options.server.per_request_randomization = true;
  traced_options.server.causal = &causal;
  traced_options.server.slo = &slo;
  ConcurrentServer traced(traced_options);
  std::string traced_blob;
  drive(&traced, &traced_blob);

  ExpectSameOutcomes(plain.outcomes(), traced.outcomes());
  EXPECT_GT(causal.size(), 0u);
  EXPECT_EQ(plain_blob, traced_blob);
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
