// The benchmark's output checks must be able to fail.  Each test serves a
// small workload through the real program, shows the check passing on the
// program's answers, then corrupts one input — a box moved, a journal
// record dropped, a witness sample removed — and shows the check
// rejecting it.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "gen.h"
#include "src/dur/sink.h"
#include "src/stindex/brute_force_index.h"
#include "src/tgran/recurrence.h"
#include "src/tgran/unanchored.h"
#include "src/ts/durability.h"
#include "src/ts/trusted_server.h"

namespace tsbench {
namespace {

namespace geo = histkanon::geo;
namespace lbqid = histkanon::lbqid;
namespace tgran = histkanon::tgran;
namespace ts = histkanon::ts;

/// Twelve users around one corner; the even ones carry a home-morning
/// LBQID and ask from home every epoch, so Algorithm 1 generalizes.
Workload TinyWorkload() {
  Workload workload;
  workload.services = {histkanon::anon::service_presets::LocalizedNews(0)};
  Rand rng(7);
  const Instant start = 7 * 3600;
  for (int u = 0; u < 12; ++u) {
    const Point home = {1000.0 + 40.0 * u, 1000.0 + rng.Uniform(-30, 30)};
    UserSpec user;
    user.id = u;
    user.policy = ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kMedium);
    if (u % 2 == 0) {
      std::vector<lbqid::LbqidElement> elements = {
          {geo::Rect::FromCenter(home, 300, 300),
           tgran::UTimeInterval::FromHours(7, 9).ValueOrDie()}};
      auto made = lbqid::Lbqid::Create(
          "home", std::move(elements),
          tgran::Recurrence::Parse("3.weekdays * 2.week", Granularities())
              .ValueOrDie());
      user.lbqid = std::make_shared<const lbqid::Lbqid>(made.ValueOrDie());
    }
    workload.users.push_back(user);
    workload.history.push_back(
        Event{Event::Kind::kUpdate, u, STPoint{home, start + u}, 0});
  }
  for (int e = 0; e < 6; ++e) {
    std::vector<Event> epoch;
    const Instant t0 = start + 60 + 60 * e;
    for (int u = 0; u < 12; ++u) {
      const Point p = {1000.0 + 40.0 * u + rng.Uniform(-20, 20),
                       1000.0 + rng.Uniform(-20, 20)};
      epoch.push_back(Event{Event::Kind::kUpdate, u, STPoint{p, t0 + u}, 0});
    }
    for (int u = 0; u < 12; u += 2) {
      const Point p = {1000.0 + 40.0 * u, 1000.0};
      epoch.push_back(Event{Event::Kind::kRequest, u, STPoint{p, t0 + 30 + u}, 0});
    }
    workload.epochs.push_back(std::move(epoch));
  }
  return workload;
}

/// Serves `workload` in epoch-normalized order; returns the answers.
/// `mirror` (optional) receives every sample the server's database
/// accepts, as the oracle's BruteForceIndex does in the benchmark.
std::vector<Answer> Serve(const Workload& workload, ts::TrustedServer* server,
                          histkanon::stindex::BruteForceIndex* mirror =
                              nullptr) {
  std::map<UserId, Instant> last;
  const auto ingest = [&](const Event& event) {
    if (mirror != nullptr &&
        (!last.count(event.user) || last[event.user] < event.point.t)) {
      mirror->Insert(event.user, event.point);
      last[event.user] = event.point.t;
    }
    EXPECT_TRUE(server->ApplyLocationUpdate(event.user, event.point).ok());
  };
  for (const auto& service : workload.services) {
    EXPECT_TRUE(server->RegisterService(service).ok());
  }
  for (const UserSpec& user : workload.users) {
    EXPECT_TRUE(server->RegisterUser(user.id, user.policy).ok());
    if (user.lbqid != nullptr) {
      EXPECT_TRUE(server->RegisterLbqid(user.id, *user.lbqid).ok());
    }
  }
  for (const Event& event : workload.history) ingest(event);
  std::vector<Answer> answers;
  for (const std::vector<Event>& epoch : workload.epochs) {
    for (const Event& event : epoch) ingest(event);
    for (const Event& event : epoch) {
      if (event.kind != Event::Kind::kRequest) continue;
      answers.push_back(AnswerOf(
          event.user, event.service,
          server->ProcessRequest(event.user, event.point, event.service, "q")));
    }
  }
  return answers;
}

size_t Generalized(const std::vector<Answer>& answers) {
  size_t count = 0;
  for (const Answer& a : answers) {
    count += a.disposition == ts::Disposition::kForwardedGeneralized ? 1 : 0;
  }
  return count;
}

std::vector<std::string> Properties(const std::vector<Answer>& answers,
                                    const Workload& workload,
                                    const SampleSet& samples) {
  std::vector<std::string> errors;
  size_t overshoots = 0;
  CheckProperties(answers, workload, samples, &errors, &overshoots);
  return errors;
}

TEST(OutputChecks, MovedBoxIsRejected) {
  const Workload workload = TinyWorkload();
  ts::TrustedServer server;
  const std::vector<Answer> answers = Serve(workload, &server);
  ASSERT_GT(Generalized(answers), 0u);
  SampleSet samples;
  AddWorkloadSamples(workload, &samples);
  EXPECT_TRUE(Properties(answers, workload, samples).empty());

  // The oracle twin reads through a BruteForceIndex and agrees.
  histkanon::stindex::BruteForceIndex brute;
  ts::TrustedServerOptions options;
  options.read_index = &brute;
  ts::TrustedServer twin(options);
  std::vector<std::string> errors;
  CompareAnswers(answers, Serve(workload, &twin, &brute), true, "twin",
                 &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();

  std::vector<Answer> moved = answers;
  for (Answer& a : moved) {
    if (a.disposition != ts::Disposition::kForwardedGeneralized) continue;
    a.context.area.min_x += 5000.0;
    a.context.area.max_x += 5000.0;
    break;
  }
  EXPECT_FALSE(Properties(moved, workload, samples).empty());
  errors.clear();
  CompareAnswers(moved, answers, false, "moved", &errors);
  EXPECT_EQ(errors.size(), 1u);
}

/// Drops the `index`-th framed record (after the 8-byte magic; records are
/// u32 length | u32 crc | payload).
std::string DropRecord(const std::string& journal, size_t index) {
  size_t pos = 8;
  for (size_t i = 0; pos + 8 <= journal.size(); ++i) {
    uint32_t length = 0;
    std::memcpy(&length, journal.data() + pos, sizeof(length));
    const size_t size = 8 + length;
    if (i == index) return journal.substr(0, pos) + journal.substr(pos + size);
    pos += size;
  }
  return journal;
}

TEST(OutputChecks, DroppedJournalRecordIsRejected) {
  const Workload workload = TinyWorkload();
  ts::TrustedServer server;
  ts::TsJournal journal;
  server.AttachJournal(&journal);
  Serve(workload, &server);
  const std::string live = server.Checkpoint().ValueOrDie();

  auto intact = ts::RecoverTrustedServer(journal.bytes(),
                                         ts::TrustedServerOptions(),
                                         Granularities());
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact->server->Checkpoint().ValueOrDie(), live);

  // Record 30 is a location update of the starting history.
  const std::string damaged = DropRecord(journal.bytes(), 30);
  ASSERT_LT(damaged.size(), journal.bytes().size());
  auto recovered = ts::RecoverTrustedServer(damaged, ts::TrustedServerOptions(),
                                            Granularities());
  ASSERT_TRUE(recovered.ok());
  EXPECT_NE(recovered->server->Checkpoint().ValueOrDie(), live);
}

TEST(OutputChecks, RemovedWitnessSampleIsRejected) {
  // Requester 0 (k = 5) forwarded one generalized box; users 1-4 each have
  // exactly one sample in it — exactly the k-1 witnesses Definition 8
  // needs.  Removing one of them must fail the check.
  Workload workload;
  workload.services = {histkanon::anon::service_presets::LocalizedNews(0)};
  for (int u = 0; u < 6; ++u) {
    workload.users.push_back(UserSpec{
        u, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kMedium), nullptr});
  }
  Answer answer;
  answer.user = 0;
  answer.exact = STPoint{{100, 100}, 1000};
  answer.disposition = ts::Disposition::kForwardedGeneralized;
  answer.forwarded = true;
  answer.hk_anonymity = true;
  answer.pseudonym = "p0";
  answer.context.area = geo::Rect{50, 50, 150, 150};
  answer.context.time = geo::TimeInterval{900, 1100};
  SampleSet samples;
  samples.Add(0, answer.exact);
  for (int u = 1; u <= 4; ++u) samples.Add(u, STPoint{{60.0 + 10 * u, 120}, 950 + u});
  samples.Add(5, STPoint{{400, 400}, 1000});  // outside the box
  samples.Seal();
  EXPECT_TRUE(Properties({answer}, workload, samples).empty());
  ASSERT_TRUE(samples.Remove(3, STPoint{{90, 120}, 953}));
  EXPECT_FALSE(Properties({answer}, workload, samples).empty());
}

}  // namespace
}  // namespace tsbench
