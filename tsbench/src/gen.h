// The benchmark's own input generator.  Every input is a pure function of
// the seed and of this file: no generator of the program (ts::Make*
// Workload, sim::) is used, so a change to the program cannot silently
// change what it is measured on.  The program receives only the events.

#ifndef TSBENCH_SRC_GEN_H_
#define TSBENCH_SRC_GEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/anon/tolerance.h"
#include "src/geo/point.h"
#include "src/lbqid/lbqid.h"
#include "src/mod/types.h"
#include "src/tgran/granularity.h"
#include "src/ts/policy.h"

namespace tsbench {

using histkanon::geo::Instant;
using histkanon::geo::Point;
using histkanon::geo::STPoint;
using histkanon::mod::ServiceId;
using histkanon::mod::UserId;

/// splitmix64: small, fast and fully specified here.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi] (inclusive).
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(double p) { return Uniform(0.0, 1.0) < p; }

 private:
  uint64_t state_;
};

/// One input event.  A request's exact point is also a location update
/// (every request has a PHL element), which the epoch-normalized replay
/// ingests before serving.
struct Event {
  enum class Kind : uint8_t { kUpdate, kRequest };
  Kind kind = Kind::kUpdate;
  UserId user = histkanon::mod::kInvalidUser;
  STPoint point;
  ServiceId service = 0;
};

struct UserSpec {
  UserId id = histkanon::mod::kInvalidUser;
  histkanon::ts::PrivacyPolicy policy;
  /// The user's LBQID (nullptr: none).
  std::shared_ptr<const histkanon::lbqid::Lbqid> lbqid;
};

struct Workload {
  std::vector<histkanon::anon::ServiceProfile> services;
  std::vector<UserSpec> users;
  /// Starting history, loaded during set-up (updates only).
  std::vector<Event> history;
  /// In-process workloads: the timed epochs, each in submission order.
  std::vector<std::vector<Event>> epochs;
  /// commuter-serial: a snapshot is written after these epochs.
  std::vector<size_t> checkpoint_after;
  /// hotspot-batch: windows made of co-located requests.
  std::vector<bool> colocated;
  /// uniform-wire: the open-loop and closed-loop streams, as (update,
  /// request) pairs: events[2i] is an update, events[2i+1] a request.
  std::vector<Event> open_loop;
  std::vector<Event> closed_loop;

  size_t CountKind(Event::Kind kind) const;
  /// "users 400, updates ..., requests ..., updates per request ..." for
  /// stderr.
  std::string Describe() const;
  /// A hash of every event and snapshot point: equal inputs, equal digest.
  uint64_t Digest() const;
};

/// The granularity registry every LBQID and journal decode resolves
/// against (lives for the whole process).
const histkanon::tgran::GranularityRegistry& Granularities();

/// Multi-day commuter population (see README.md for the make-up).
Workload MakeCommuterWorkload(uint64_t seed);
/// Dense hotspot crowd, one batch window per epoch.
Workload MakeHotspotWorkload(uint64_t seed);
/// Uniform population for the wire workload.
Workload MakeUniformWorkload(uint64_t seed);

}  // namespace tsbench

#endif  // TSBENCH_SRC_GEN_H_
