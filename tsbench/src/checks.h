// Output checks, run after the timed phase and outside it.  Each decides
// from properties and computations the benchmark makes apart from the
// program — never from a stored copy of the program's earlier output:
//
//  - every forwarded context contains the request's exact point and
//    instant;
//  - every generalized context fits its service's tolerance;
//  - every LBQID-matching request set forwarded generalized (Algorithm 1's
//    HkA flag set, no at-risk context in the set) has at least k-1 other
//    users with a sample in every box (Definition 8), decided by scanning
//    the benchmark's own copy of the samples it sent;
//  - answers equal those of an oracle server (compared by the caller).

#ifndef TSBENCH_SRC_CHECKS_H_
#define TSBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/anon/tolerance.h"
#include "gen.h"
#include "src/geo/stbox.h"
#include "src/ts/trusted_server.h"

namespace tsbench {

/// \brief One request's answer as the benchmark sees it.
struct Answer {
  UserId user = histkanon::mod::kInvalidUser;
  STPoint exact;
  ServiceId service = 0;
  histkanon::ts::Disposition disposition =
      histkanon::ts::Disposition::kForwardedDefault;
  bool forwarded = false;
  histkanon::geo::STBox context;
  std::string pseudonym;
  int64_t msgid = 0;
  /// Algorithm 1's flag, where the entry point reports it (in-process).
  bool hk_anonymity = false;
};

/// The answer of one in-process request outcome.
Answer AnswerOf(UserId user, ServiceId service,
                const histkanon::ts::ProcessOutcome& outcome);

/// \brief The samples the benchmark sent, bucketed by 500 m cell with each
/// bucket sorted by time.
class SampleSet {
 public:
  void Add(UserId user, const STPoint& sample);
  /// Call once after the last Add.
  void Seal();
  /// Distinct users with a sample inside `box` (bounds inclusive),
  /// ascending.
  std::vector<UserId> UsersIn(const histkanon::geo::STBox& box) const;
  /// Drops one sample (the check tests remove a witness this way).
  bool Remove(UserId user, const STPoint& sample);

 private:
  struct Sample {
    Instant t;
    double x;
    double y;
    UserId user;
  };
  static int64_t CellOf(double v);
  static uint64_t Key(int64_t cx, int64_t cy);
  std::unordered_map<uint64_t, std::vector<Sample>> cells_;
};

/// Adds every sample a workload sends: history, every epoch's events and
/// both wire streams (a request's point is a sample too).
void AddWorkloadSamples(const Workload& workload, SampleSet* samples);

/// Checks the three properties over `answers` (in processing order).
/// Appends one message per violation (at most `max_errors`); counts
/// generalized contexts wider than their tolerance by no more than a
/// rounding error (1e-6 m) in `rounding_overshoots`.
void CheckProperties(const std::vector<Answer>& answers,
                     const Workload& workload, const SampleSet& samples,
                     std::vector<std::string>* errors,
                     size_t* rounding_overshoots, size_t max_errors = 8);

/// "forwarded-default 812, forwarded-generalized 97, ..." for stderr.
std::string DispositionSummary(const std::vector<Answer>& answers);

/// Compares two answer lists field by field; `exact_identity` also
/// compares pseudonyms and message ids (same-seed serial servers).
void CompareAnswers(const std::vector<Answer>& got,
                    const std::vector<Answer>& want, bool exact_identity,
                    const std::string& what, std::vector<std::string>* errors,
                    size_t max_errors = 8);

/// Order-sensitive digest of an answer list (identity fields included).
uint64_t DigestAnswers(const std::vector<Answer>& answers);

}  // namespace tsbench

#endif  // TSBENCH_SRC_CHECKS_H_
