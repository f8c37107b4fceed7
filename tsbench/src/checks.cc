#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>

namespace tsbench {
namespace {

namespace ts = histkanon::ts;
using histkanon::geo::STBox;

constexpr double kCell = 500.0;
constexpr double kRounding = 1e-6;

std::string Describe(const Answer& a) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "user %lld at (%.3f, %.3f, t=%lld) service %d",
                static_cast<long long>(a.user), a.exact.p.x, a.exact.p.y,
                static_cast<long long>(a.exact.t), a.service);
  return buffer;
}

std::string BoxString(const STBox& box) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer), "[%.3f,%.3f]x[%.3f,%.3f]x[%lld,%lld]",
                box.area.min_x, box.area.max_x, box.area.min_y,
                box.area.max_y, static_cast<long long>(box.time.lo),
                static_cast<long long>(box.time.hi));
  return buffer;
}

bool Inside(const STBox& box, const STPoint& p) {
  return box.area.min_x <= p.p.x && p.p.x <= box.area.max_x &&
         box.area.min_y <= p.p.y && p.p.y <= box.area.max_y &&
         box.time.lo <= p.t && p.t <= box.time.hi;
}

void Push(std::vector<std::string>* errors, size_t max_errors,
          std::string message) {
  if (errors->size() < max_errors) errors->push_back(std::move(message));
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

Answer AnswerOf(UserId user, ServiceId service,
                const ts::ProcessOutcome& outcome) {
  Answer answer;
  answer.user = user;
  answer.exact = outcome.exact;
  answer.service = service;
  answer.disposition = outcome.disposition;
  answer.forwarded = outcome.forwarded;
  if (outcome.forwarded) {
    answer.context = outcome.forwarded_request.context;
    answer.pseudonym = outcome.forwarded_request.pseudonym;
    answer.msgid = outcome.forwarded_request.msgid;
  }
  answer.hk_anonymity = outcome.hk_anonymity;
  return answer;
}

int64_t SampleSet::CellOf(double v) {
  return static_cast<int64_t>(std::floor(v / kCell));
}

uint64_t SampleSet::Key(int64_t cx, int64_t cy) {
  return (static_cast<uint64_t>(cx) << 32) ^
         (static_cast<uint64_t>(cy) & 0xffffffffULL);
}

void SampleSet::Add(UserId user, const STPoint& sample) {
  cells_[Key(CellOf(sample.p.x), CellOf(sample.p.y))].push_back(
      Sample{sample.t, sample.p.x, sample.p.y, user});
}

void SampleSet::Seal() {
  for (auto& [key, samples] : cells_) {
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.t < b.t; });
  }
}

bool SampleSet::Remove(UserId user, const STPoint& sample) {
  auto it = cells_.find(Key(CellOf(sample.p.x), CellOf(sample.p.y)));
  if (it == cells_.end()) return false;
  std::vector<Sample>& samples = it->second;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].user == user && samples[i].t == sample.t &&
        samples[i].x == sample.p.x && samples[i].y == sample.p.y) {
      samples.erase(samples.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

std::vector<UserId> SampleSet::UsersIn(const STBox& box) const {
  std::vector<UserId> users;
  const int64_t x0 = CellOf(box.area.min_x);
  const int64_t x1 = CellOf(box.area.max_x);
  const int64_t y0 = CellOf(box.area.min_y);
  const int64_t y1 = CellOf(box.area.max_y);
  for (int64_t cx = x0; cx <= x1; ++cx) {
    for (int64_t cy = y0; cy <= y1; ++cy) {
      const auto it = cells_.find(Key(cx, cy));
      if (it == cells_.end()) continue;
      const std::vector<Sample>& samples = it->second;
      auto sample = std::lower_bound(
          samples.begin(), samples.end(), box.time.lo,
          [](const Sample& s, Instant t) { return s.t < t; });
      for (; sample != samples.end() && sample->t <= box.time.hi; ++sample) {
        if (box.area.min_x <= sample->x && sample->x <= box.area.max_x &&
            box.area.min_y <= sample->y && sample->y <= box.area.max_y) {
          users.push_back(sample->user);
        }
      }
    }
  }
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  return users;
}

void AddWorkloadSamples(const Workload& workload, SampleSet* samples) {
  const auto add = [&](const std::vector<Event>& events) {
    for (const Event& event : events) samples->Add(event.user, event.point);
  };
  add(workload.history);
  for (const std::vector<Event>& epoch : workload.epochs) add(epoch);
  add(workload.open_loop);
  add(workload.closed_loop);
  samples->Seal();
}

void CheckProperties(const std::vector<Answer>& answers,
                     const Workload& workload, const SampleSet& samples,
                     std::vector<std::string>* errors,
                     size_t* rounding_overshoots, size_t max_errors) {
  std::map<ServiceId, histkanon::anon::ToleranceConstraints> tolerance;
  for (const auto& service : workload.services) {
    tolerance[service.id] = service.tolerance;
  }
  std::map<UserId, size_t> k_of;
  for (const UserSpec& user : workload.users) k_of[user.id] = user.policy.k;

  // Definition-8 request sets: per (user, pseudonym), the generalized
  // contexts forwarded before the set's first at-risk context.  (Each
  // user carries at most one LBQID, and a pseudonym rotation starts a new
  // set.)
  struct RequestSet {
    UserId user;
    std::vector<STBox> contexts;
    bool tainted = false;
  };
  std::map<std::pair<UserId, std::string>, RequestSet> sets;

  for (const Answer& a : answers) {
    if (!a.forwarded) continue;
    if (!Inside(a.context, a.exact)) {
      Push(errors, max_errors,
           "forwarded context " + BoxString(a.context) +
               " misses the exact point of " + Describe(a));
    }
    const bool generalized =
        a.disposition == ts::Disposition::kForwardedGeneralized;
    if (generalized) {
      const auto it = tolerance.find(a.service);
      const auto& t = it == tolerance.end()
                          ? histkanon::anon::ToleranceConstraints{}
                          : it->second;
      const double width = a.context.area.max_x - a.context.area.min_x;
      const double height = a.context.area.max_y - a.context.area.min_y;
      const int64_t window = a.context.time.hi - a.context.time.lo;
      // The program expands generalized boxes with floating-point
      // margins that can overshoot the tolerance by a rounding error;
      // overshoots below kRounding metres are counted, not failed.
      const double over = std::max(width - t.max_area_width,
                                   height - t.max_area_height);
      if (over > 0.0 && over <= kRounding) ++*rounding_overshoots;
      if (over > kRounding || window > t.max_time_window) {
        Push(errors, max_errors,
             "generalized context " + BoxString(a.context) +
                 " exceeds the tolerance of service " +
                 std::to_string(a.service) + " for " + Describe(a));
      }
    }
    if (generalized || a.disposition == ts::Disposition::kAtRisk) {
      RequestSet& set = sets[{a.user, a.pseudonym}];
      set.user = a.user;
      if (a.disposition == ts::Disposition::kAtRisk) set.tainted = true;
      if (generalized && a.hk_anonymity && !set.tainted) {
        set.contexts.push_back(a.context);
      }
    }
  }

  for (const auto& [key, set] : sets) {
    if (set.contexts.empty()) continue;
    std::vector<UserId> witnesses = samples.UsersIn(set.contexts.front());
    for (size_t i = 1; i < set.contexts.size() && !witnesses.empty(); ++i) {
      const std::vector<UserId> in = samples.UsersIn(set.contexts[i]);
      std::vector<UserId> both;
      std::set_intersection(witnesses.begin(), witnesses.end(), in.begin(),
                            in.end(), std::back_inserter(both));
      witnesses = std::move(both);
    }
    const size_t others =
        witnesses.size() -
        (std::binary_search(witnesses.begin(), witnesses.end(), set.user) ? 1
                                                                          : 0);
    const size_t k = k_of.count(set.user) ? k_of[set.user] : 5;
    if (others + 1 < k) {
      Push(errors, max_errors,
           "request set of user " + std::to_string(set.user) + " (" +
               std::to_string(set.contexts.size()) + " generalized boxes) has " +
               std::to_string(others) + " other users in every box, needs " +
               std::to_string(k - 1));
    }
  }
}

void CompareAnswers(const std::vector<Answer>& got,
                    const std::vector<Answer>& want, bool exact_identity,
                    const std::string& what, std::vector<std::string>* errors,
                    size_t max_errors) {
  if (got.size() != want.size()) {
    Push(errors, max_errors,
         what + ": " + std::to_string(got.size()) + " answers, expected " +
             std::to_string(want.size()));
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const Answer& g = got[i];
    const Answer& w = want[i];
    bool same = g.user == w.user && g.exact == w.exact &&
                g.disposition == w.disposition && g.forwarded == w.forwarded &&
                (!g.forwarded || g.context == w.context);
    if (exact_identity) {
      same = same && g.pseudonym == w.pseudonym && g.msgid == w.msgid &&
             g.hk_anonymity == w.hk_anonymity;
    }
    if (!same) {
      Push(errors, max_errors,
           what + ": answer " + std::to_string(i) + " for " + Describe(g) +
               " is " +
               std::string(ts::DispositionToString(g.disposition)) + " " +
               BoxString(g.context) + ", expected " +
               std::string(ts::DispositionToString(w.disposition)) + " " +
               BoxString(w.context));
    }
  }
}

uint64_t DigestAnswers(const std::vector<Answer>& answers) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (const Answer& a : answers) {
    h = Mix(h, static_cast<uint64_t>(a.user));
    h = Mix(h, static_cast<uint64_t>(a.exact.t));
    h = Mix(h, static_cast<uint64_t>(a.disposition));
    h = Mix(h, a.forwarded ? 1 : 0);
    h = Mix(h, a.hk_anonymity ? 1 : 0);
    h = Mix(h, static_cast<uint64_t>(a.msgid));
    for (const double v : {a.context.area.min_x, a.context.area.min_y,
                           a.context.area.max_x, a.context.area.max_y}) {
      h = Mix(h, Bits(v));
    }
    h = Mix(h, static_cast<uint64_t>(a.context.time.lo));
    h = Mix(h, static_cast<uint64_t>(a.context.time.hi));
    for (const char c : a.pseudonym) h = Mix(h, static_cast<uint8_t>(c));
  }
  return h;
}

}  // namespace tsbench

namespace tsbench {

std::string DispositionSummary(const std::vector<Answer>& answers) {
  std::map<std::string, size_t> counts;
  for (const Answer& a : answers) {
    ++counts[std::string(ts::DispositionToString(a.disposition))];
  }
  std::string out;
  for (const auto& [name, count] : counts) {
    out += (out.empty() ? "" : ", ") + name + " " + std::to_string(count);
  }
  return out;
}

}  // namespace tsbench
