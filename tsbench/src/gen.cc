#include "gen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "src/geo/rect.h"
#include "src/tgran/recurrence.h"
#include "src/tgran/unanchored.h"

namespace tsbench {
namespace {

namespace anon = histkanon::anon;
namespace geo = histkanon::geo;
namespace lbqid = histkanon::lbqid;
namespace tgran = histkanon::tgran;
namespace ts = histkanon::ts;

constexpr Instant kHour = 3600;
constexpr Instant kDay = 24 * kHour;

Instant At(int64_t day, int64_t hour, int64_t minute = 0) {
  return day * kDay + hour * kHour + minute * 60;
}

Point Jitter(Rand* rng, Point p, double radius) {
  return Point{p.x + rng->Uniform(-radius, radius),
               p.y + rng->Uniform(-radius, radius)};
}

Point Clamp(Point p, double extent) {
  return Point{std::clamp(p.x, 0.0, extent), std::clamp(p.y, 0.0, extent)};
}

Point Lerp(Point a, Point b, double f) {
  return Point{a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f};
}

/// The paper's Example-2 LBQID (home in the morning, office, office in the
/// afternoon, home in the evening; 3 weekdays in each of 2 weeks).
std::shared_ptr<const lbqid::Lbqid> CommuteLbqid(UserId user, Point home,
                                                 Point office) {
  const auto hours = [](int begin, int end) {
    return tgran::UTimeInterval::FromHours(begin, end).ValueOrDie();
  };
  const geo::Rect home_area = geo::Rect::FromCenter(home, 300.0, 300.0);
  const geo::Rect office_area = geo::Rect::FromCenter(office, 500.0, 500.0);
  std::vector<lbqid::LbqidElement> elements = {
      {home_area, hours(7, 9)},
      {office_area, hours(7, 10)},
      {office_area, hours(16, 18)},
      {home_area, hours(16, 19)},
  };
  auto recurrence =
      tgran::Recurrence::Parse("3.weekdays * 2.week", Granularities());
  auto created = lbqid::Lbqid::Create("commute-" + std::to_string(user),
                                      std::move(elements),
                                      std::move(recurrence).ValueOrDie());
  return std::make_shared<const lbqid::Lbqid>(
      std::move(created).ValueOrDie());
}

Event Update(UserId user, Point p, Instant t) {
  return Event{Event::Kind::kUpdate, user, STPoint{p, t}, 0};
}

Event Request(UserId user, Point p, Instant t, ServiceId service) {
  return Event{Event::Kind::kRequest, user, STPoint{p, t}, service};
}

/// Sorts by (instant, user, kind); equal events keep their order.  Sorts
/// packed 64-bit keys and then moves each event once: sorting the events
/// themselves took most of the commuter set-up.  Instants and user ids of
/// every generator here are small and non-negative.
void SortByTime(std::vector<Event>* events) {
  std::vector<std::pair<uint64_t, uint32_t>> order(events->size());
  for (size_t i = 0; i < events->size(); ++i) {
    const Event& event = (*events)[i];
    assert(event.point.t >= 0 && event.point.t < (Instant{1} << 39));
    assert(event.user >= 0 && event.user < (UserId{1} << 23));
    order[i] = {static_cast<uint64_t>(event.point.t) << 24 |
                    static_cast<uint64_t>(event.user) << 1 |
                    static_cast<uint64_t>(event.kind),
                static_cast<uint32_t>(i)};
  }
  std::sort(order.begin(), order.end());
  std::vector<Event> sorted;
  sorted.reserve(events->size());
  for (const auto& [key, i] : order) sorted.push_back((*events)[i]);
  *events = std::move(sorted);
}

std::vector<anon::ServiceProfile> TwoServices() {
  return {anon::service_presets::LocalizedNews(0),
          anon::service_presets::NearestHospital(1)};
}

// -- commuter-serial ---------------------------------------------------------

constexpr size_t kCommuters = 120;
constexpr size_t kWanderers = 280;
constexpr int64_t kDays = 4;  // Monday..Thursday
constexpr int64_t kUpdatePeriod = 120;
constexpr int64_t kCommuterEpoch = 300;
constexpr double kCityExtent = 12000.0;
/// Updates every user sends (14 active hours of 120 s ticks a day) plus
/// the requests, rounded up.
constexpr size_t kCommuterEventsReserve =
    (kCommuters + kWanderers) * kDays * (14 * kHour / kUpdatePeriod + 16);

/// One straight-line leg of a wanderer's day.
struct Leg {
  Instant start = 0;
  Instant arrive = 0;
  Instant leave = 0;
  Point from;
  Point to;
};

}  // namespace

const tgran::GranularityRegistry& Granularities() {
  static const tgran::GranularityRegistry* registry =
      new tgran::GranularityRegistry(tgran::GranularityRegistry::WithDefaults());
  return *registry;
}

size_t Workload::CountKind(Event::Kind kind) const {
  size_t count = 0;
  const auto add = [&](const std::vector<Event>& events) {
    for (const Event& event : events) count += event.kind == kind ? 1 : 0;
  };
  add(history);
  for (const std::vector<Event>& epoch : epochs) add(epoch);
  add(open_loop);
  add(closed_loop);
  return count;
}

std::string Workload::Describe() const {
  const size_t updates = CountKind(Event::Kind::kUpdate);
  const size_t requests = CountKind(Event::Kind::kRequest);
  size_t lbqids = 0;
  for (const UserSpec& user : users) lbqids += user.lbqid != nullptr ? 1 : 0;
  size_t colocated_requests = 0;
  for (size_t e = 0; e < colocated.size(); ++e) {
    if (!colocated[e]) continue;
    for (const Event& event : epochs[e]) {
      colocated_requests += event.kind == Event::Kind::kRequest ? 1 : 0;
    }
  }
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "users %zu (%zu with an LBQID), epochs %zu, updates %zu "
                "(history %zu), requests %zu, updates per request %.1f, "
                "co-located requests %.1f%%",
                users.size(), lbqids, epochs.size(), updates, history.size(),
                requests,
                requests == 0 ? 0.0
                              : static_cast<double>(updates) /
                                    static_cast<double>(requests),
                requests == 0 ? 0.0
                              : 100.0 * static_cast<double>(colocated_requests) /
                                    static_cast<double>(requests));
  return buffer;
}

uint64_t Workload::Digest() const {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&](const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
  };
  const auto add = [&](const std::vector<Event>& events) {
    const uint64_t count = events.size();
    mix(&count, sizeof(count));
    for (const Event& event : events) {
      mix(&event.kind, sizeof(event.kind));
      mix(&event.user, sizeof(event.user));
      mix(&event.point.p.x, sizeof(event.point.p.x));
      mix(&event.point.p.y, sizeof(event.point.p.y));
      mix(&event.point.t, sizeof(event.point.t));
      mix(&event.service, sizeof(event.service));
    }
  };
  add(history);
  for (const std::vector<Event>& epoch : epochs) add(epoch);
  add(open_loop);
  add(closed_loop);
  for (const size_t e : checkpoint_after) mix(&e, sizeof(e));
  return hash;
}

Workload MakeCommuterWorkload(uint64_t seed) {
  Rand rng(seed * 0x9e3779b97f4a7c15ULL + 0xc0u);
  Workload workload;
  workload.services = TwoServices();
  const Point residential[] = {{2500, 2500}, {9000, 3000}, {4000, 9000}};
  const Point business = {6500, 6000};
  const Instant day_begin = 6 * kHour + 30 * 60;
  const Instant day_end = 20 * kHour + 30 * 60;

  std::vector<Event> events;
  events.reserve(kCommuterEventsReserve);
  const auto user_ticks = [&](int64_t phase, int64_t day,
                              const auto& position_at) {
    for (Instant t = At(day, 0) + day_begin + phase; t < At(day, 0) + day_end;
         t += kUpdatePeriod) {
      events.push_back(Update(static_cast<UserId>(workload.users.size()),
                              position_at(t), t));
    }
  };
  // A request instant never coincides with one of the user's update ticks
  // (the database keeps one sample per user and second).
  const auto off_tick = [](Instant t, int64_t phase) {
    return (t - phase) % kUpdatePeriod == 0 ? t + 1 : t;
  };

  for (size_t c = 0; c < kCommuters; ++c) {
    const UserId user = static_cast<UserId>(workload.users.size());
    // 85% live in one of three residential districts; the rest are
    // isolated, so Algorithm 1 sometimes fails and unlinking is tried.
    const bool isolated = rng.Chance(0.15);
    const Point home =
        isolated ? Point{rng.Uniform(0, kCityExtent), rng.Uniform(0, kCityExtent)}
                 : Clamp(Jitter(&rng, residential[c % 3], 700.0), kCityExtent);
    const Point office = Jitter(&rng, business, 600.0);
    const int64_t phase = rng.Int(0, kUpdatePeriod - 1);
    for (int64_t day = 0; day < kDays; ++day) {
      const Instant depart = At(day, 7, 40) + rng.Int(0, 40 * 60);
      const Instant arrive = depart + 1800;
      const Instant leave = At(day, 16, 30) + rng.Int(0, 45 * 60);
      const Instant back = leave + 1800;
      const auto position_at = [&](Instant t) {
        Point p;
        if (t < depart || t >= back) {
          p = home;
        } else if (t < arrive) {
          p = Lerp(home, office, static_cast<double>(t - depart) / 1800.0);
        } else if (t < leave) {
          p = office;
        } else {
          p = Lerp(office, home, static_cast<double>(t - leave) / 1800.0);
        }
        return Jitter(&rng, p, 20.0);
      };
      user_ticks(phase, day, position_at);
      const Instant home_am = off_tick(At(day, 7, 5) + rng.Int(0, 30 * 60), phase);
      const Instant office_am = off_tick(At(day, 9, 0) + rng.Int(0, 50 * 60), phase);
      const Instant office_pm = off_tick(At(day, 16, 0) + rng.Int(0, 25 * 60), phase);
      const Instant home_pm = off_tick(At(day, 18, 0) + rng.Int(0, 50 * 60), phase);
      for (const Instant t : {home_am, office_am, office_pm, home_pm}) {
        const ServiceId service = rng.Chance(0.5) ? 0 : 1;
        events.push_back(Request(user, position_at(t), t, service));
        // Half the time a follow-up a few minutes later: after an unlink
        // it falls in the mix-zone's quiet period and is suppressed.
        if (rng.Chance(0.5)) {
          const Instant again = off_tick(t + rng.Int(120, 600), phase);
          events.push_back(Request(user, position_at(again), again, service));
        }
      }
    }
    workload.users.push_back(UserSpec{
        user,
        ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kMedium),
        CommuteLbqid(user, home, office)});
  }

  for (size_t w = 0; w < kWanderers; ++w) {
    const UserId user = static_cast<UserId>(workload.users.size());
    const int64_t phase = rng.Int(0, kUpdatePeriod - 1);
    Point at = {rng.Uniform(0, kCityExtent), rng.Uniform(0, kCityExtent)};
    for (int64_t day = 0; day < kDays; ++day) {
      // Random waypoints, half of them in a district (the crowds that make
      // mix-zones and k-anonymous boxes possible).
      std::vector<Leg> legs;
      Instant clock = At(day, 0) + day_begin;
      while (clock < At(day, 0) + day_end) {
        Point to;
        if (rng.Chance(0.5)) {
          const size_t d = static_cast<size_t>(rng.Int(0, 3));
          to = Clamp(Jitter(&rng, d < 3 ? residential[d] : business, 900.0),
                     kCityExtent);
        } else {
          to = Point{rng.Uniform(0, kCityExtent), rng.Uniform(0, kCityExtent)};
        }
        const double distance = std::hypot(to.x - at.x, to.y - at.y);
        const Instant travel = 1 + static_cast<Instant>(
                                       distance / rng.Uniform(1.0, 12.0));
        const Instant pause = rng.Int(60, 1800);
        legs.push_back(Leg{clock, clock + travel, clock + travel + pause, at, to});
        clock += travel + pause;
        at = to;
      }
      size_t leg = 0;
      const auto position_at = [&](Instant t) {
        while (leg + 1 < legs.size() && legs[leg].leave <= t) ++leg;
        const Leg& l = legs[leg];
        const Point p =
            t >= l.arrive
                ? l.to
                : Lerp(l.from, l.to,
                       static_cast<double>(t - l.start) /
                           static_cast<double>(l.arrive - l.start));
        return Jitter(&rng, p, 10.0);
      };
      user_ticks(phase, day, position_at);
      std::vector<Instant> asks;
      for (int r = 0; r < 6; ++r) {
        asks.push_back(off_tick(
            At(day, 0) + day_begin + 60 + rng.Int(0, day_end - day_begin - 120),
            phase));
      }
      std::sort(asks.begin(), asks.end());
      asks.erase(std::unique(asks.begin(), asks.end()), asks.end());
      leg = 0;
      for (const Instant t : asks) {
        events.push_back(Request(user, position_at(t), t,
                                 rng.Chance(0.5) ? 0 : 1));
      }
    }
    workload.users.push_back(UserSpec{
        user, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kMedium),
        nullptr});
  }

  // Per-user times must be strictly increasing; drop a same-second clash
  // between a wanderer's request and its own update (rare).
  SortByTime(&events);

  // The first half hour of Monday is the starting history; the rest is cut
  // into 5-minute epochs (nights carry no events, so no empty epochs).
  // Events are in time order, so each epoch is one run of them.
  const Instant history_end = At(0, 7);
  std::vector<Instant> last(workload.users.size(),
                            std::numeric_limits<Instant>::min());
  Instant epoch_key = -1;
  // Snapshot at 13:00 each day, after the epoch that ends then: recovery
  // restores the last one and replays the afternoon after it.
  const auto close_epoch = [&] {
    if (epoch_key >= 0 &&
        (epoch_key + 1) * kCommuterEpoch % kDay == 13 * kHour) {
      workload.checkpoint_after.push_back(workload.epochs.size() - 1);
    }
  };
  for (const Event& event : events) {
    if (last[event.user] >= event.point.t) continue;
    last[event.user] = event.point.t;
    if (event.point.t < history_end) {
      workload.history.push_back(event);
      continue;
    }
    const Instant key = event.point.t / kCommuterEpoch;
    if (key != epoch_key) {
      close_epoch();
      workload.epochs.emplace_back();
      epoch_key = key;
    }
    workload.epochs.back().push_back(event);
  }
  close_epoch();
  return workload;
}

// -- hotspot-batch -----------------------------------------------------------

Workload MakeHotspotWorkload(uint64_t seed) {
  Rand rng(seed * 0x9e3779b97f4a7c15ULL + 0xb0u);
  constexpr size_t kUsers = 4000;
  constexpr size_t kHotUsers = 1000;
  constexpr size_t kEpochs = 30;
  constexpr size_t kRequestsPerEpoch = 2000;
  constexpr size_t kGroup = 25;
  constexpr double kExtent = 8000.0;
  constexpr double kHotLo = 3600.0;
  constexpr double kHotHi = 4400.0;
  constexpr int64_t kEpochSeconds = 120;

  Workload workload;
  workload.services = TwoServices();
  std::vector<Point> base(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    base[u] = u < kHotUsers
                  ? Point{rng.Uniform(kHotLo, kHotHi), rng.Uniform(kHotLo, kHotHi)}
                  : Point{rng.Uniform(0, kExtent), rng.Uniform(0, kExtent)};
    const UserId user = static_cast<UserId>(u);
    workload.users.push_back(UserSpec{
        user, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kMedium),
        u % 2 == 0 ? CommuteLbqid(user, base[u],
                                  Point{base[u].x + 1500, base[u].y + 900})
                   : nullptr});
  }
  const Instant start = At(0, 8);
  for (size_t u = 0; u < kUsers; ++u) {
    workload.history.push_back(
        Update(static_cast<UserId>(u), Jitter(&rng, base[u], 40.0),
               start - kEpochSeconds + rng.Int(0, kEpochSeconds - 1)));
  }
  SortByTime(&workload.history);

  // Hot users with an LBQID (even ids), for co-located groups: requests at
  // a kiosk inside the requesters' home areas, so they reach Algorithm 1.
  for (size_t e = 0; e < kEpochs; ++e) {
    const Instant t0 = start + static_cast<Instant>(e) * kEpochSeconds;
    std::vector<Event> updates;
    for (size_t u = 0; u < kUsers; ++u) {
      updates.push_back(Update(static_cast<UserId>(u),
                               Jitter(&rng, base[u], 40.0),
                               t0 + rng.Int(0, kEpochSeconds / 2 - 1)));
    }
    SortByTime(&updates);
    std::vector<Event> requests;
    std::set<std::pair<UserId, Instant>> used;
    const bool colocated = e % 3 == 0;
    const auto request_tick = [&] {
      return t0 + kEpochSeconds / 2 + rng.Int(0, kEpochSeconds / 2 - 1);
    };
    while (requests.size() < kRequestsPerEpoch) {
      if (colocated) {
        const Point spot = {rng.Uniform(kHotLo + 150, kHotHi - 150),
                            rng.Uniform(kHotLo + 150, kHotHi - 150)};
        const Instant t = request_tick();
        const ServiceId service = rng.Chance(0.7) ? 0 : 1;
        size_t members = 0;
        for (size_t u = 0; u < kHotUsers && members < kGroup &&
                           requests.size() < kRequestsPerEpoch;
             u += 2) {
          if (std::abs(base[u].x - spot.x) > 140 ||
              std::abs(base[u].y - spot.y) > 140) {
            continue;
          }
          if (!used.emplace(static_cast<UserId>(u), t).second) continue;
          requests.push_back(
              Request(static_cast<UserId>(u), spot, t, service));
          ++members;
        }
        continue;
      }
      const size_t u = rng.Chance(0.8)
                           ? static_cast<size_t>(rng.Int(0, kHotUsers - 1))
                           : static_cast<size_t>(rng.Int(0, kUsers - 1));
      const Instant t = request_tick();
      if (!used.emplace(static_cast<UserId>(u), t).second) continue;
      requests.push_back(Request(static_cast<UserId>(u),
                                 Jitter(&rng, base[u], 25.0), t,
                                 rng.Chance(0.7) ? 0 : 1));
    }
    std::vector<Event> epoch = std::move(updates);
    epoch.insert(epoch.end(), requests.begin(), requests.end());
    workload.epochs.push_back(std::move(epoch));
    workload.colocated.push_back(colocated);
  }
  return workload;
}

// -- uniform-wire ------------------------------------------------------------

Workload MakeUniformWorkload(uint64_t seed) {
  Rand rng(seed * 0x9e3779b97f4a7c15ULL + 0xa0u);
  constexpr size_t kUsers = 4000;
  constexpr size_t kOpenLoopPairs = 3000;
  constexpr size_t kClosedLoopPairs = 20000;
  constexpr double kExtent = 8000.0;

  Workload workload;
  workload.services = TwoServices();
  std::vector<Point> base(kUsers);
  std::vector<Instant> next_t(kUsers);
  const Instant start = At(0, 8);
  for (size_t u = 0; u < kUsers; ++u) {
    base[u] = Point{rng.Uniform(0, kExtent), rng.Uniform(0, kExtent)};
    const UserId user = static_cast<UserId>(u);
    workload.users.push_back(UserSpec{
        user, ts::PrivacyPolicy::FromConcern(ts::PrivacyConcern::kMedium),
        u % 2 == 0 ? CommuteLbqid(user, base[u],
                                  Point{base[u].x + 1500, base[u].y + 900})
                   : nullptr});
    const Instant t = start + static_cast<Instant>(u % 60);
    workload.history.push_back(Update(user, Jitter(&rng, base[u], 40.0), t));
    next_t[u] = t + rng.Int(20, 40);
  }
  const auto pairs = [&](size_t count, std::vector<Event>* out) {
    for (size_t i = 0; i < count; ++i) {
      const size_t mover = static_cast<size_t>(rng.Int(0, kUsers - 1));
      out->push_back(Update(static_cast<UserId>(mover),
                            Jitter(&rng, base[mover], 40.0), next_t[mover]));
      next_t[mover] += rng.Int(20, 40);
      const size_t asker = static_cast<size_t>(rng.Int(0, kUsers - 1));
      out->push_back(Request(static_cast<UserId>(asker),
                             Jitter(&rng, base[asker], 25.0), next_t[asker],
                             rng.Chance(0.7) ? 0 : 1));
      next_t[asker] += rng.Int(20, 40);
    }
  };
  pairs(kOpenLoopPairs, &workload.open_loop);
  pairs(kClosedLoopPairs, &workload.closed_loop);
  return workload;
}

}  // namespace tsbench
