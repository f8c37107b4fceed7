// Timing wrappers at the program's public seams, used by the traced pass:
// a SpatioTemporalIndex passed as TrustedServerOptions::read_index, an
// ObjectStore passed as read_store (both forwarding to the server's own
// index and database), and a dur::JournalSink attached with
// TsJournal::AttachSink (forwarding to the journal file).  Each records a
// span per call; the answers are the wrapped object's, unchanged.

#ifndef TSBENCH_SRC_SEAMS_H_
#define TSBENCH_SRC_SEAMS_H_

#include <string>
#include <vector>

#include "src/dur/sink.h"
#include "src/mod/object_store.h"
#include "spans.h"
#include "src/stindex/index.h"

namespace tsbench {

namespace hk = histkanon;

class TimingIndex final : public hk::stindex::SpatioTemporalIndex {
 public:
  explicit TimingIndex(SpanRecorder* spans) : spans_(spans) {}
  /// The index every call forwards to (set once the server exists).
  void Bind(const hk::stindex::SpatioTemporalIndex* target) {
    target_ = target;
  }

  const std::string& name() const override { return target_->name(); }
  /// The server inserts into its own index, never through its read view.
  void Insert(hk::mod::UserId user, const hk::geo::STPoint& sample) override;
  size_t size() const override { return target_->size(); }
  uint64_t epoch() const override { return target_->epoch(); }
  std::vector<hk::stindex::Entry> RangeQuery(
      const hk::geo::STBox& box) const override;
  std::vector<hk::stindex::UserNeighbor> NearestPerUser(
      const hk::geo::STPoint& query, size_t k, hk::mod::UserId exclude,
      const hk::geo::STMetric& metric) const override;

 private:
  SpanRecorder* const spans_;
  const hk::stindex::SpatioTemporalIndex* target_ = nullptr;
};

class TimingStore final : public hk::mod::ObjectStore {
 public:
  explicit TimingStore(SpanRecorder* spans) : spans_(spans) {}
  void Bind(const hk::mod::ObjectStore* target) { target_ = target; }

  hk::common::Result<const hk::mod::Phl*> GetPhl(
      hk::mod::UserId user) const override;
  std::vector<hk::mod::UserId> Users() const override {
    return target_->Users();
  }
  size_t user_count() const override { return target_->user_count(); }
  size_t total_samples() const override { return target_->total_samples(); }
  uint64_t epoch() const override { return target_->epoch(); }
  std::vector<hk::mod::UserId> UsersWithSampleIn(
      const hk::geo::STBox& box) const override;
  size_t CountUsersWithSampleIn(const hk::geo::STBox& box) const override;
  std::vector<hk::mod::UserId> LtConsistentUsers(
      const std::vector<hk::geo::STBox>& contexts,
      hk::mod::UserId exclude) const override;
  void ForEachSample(
      const std::function<void(hk::mod::UserId, const hk::geo::STPoint&)>& fn)
      const override {
    target_->ForEachSample(fn);
  }

 private:
  SpanRecorder* const spans_;
  const hk::mod::ObjectStore* target_ = nullptr;
};

class TimingSink final : public hk::dur::JournalSink {
 public:
  TimingSink(SpanRecorder* spans, hk::dur::JournalSink* target)
      : spans_(spans), target_(target) {}
  hk::common::Status Append(std::string_view bytes) override;
  hk::common::Status Sync() override;

 private:
  SpanRecorder* const spans_;
  hk::dur::JournalSink* const target_;
};

}  // namespace tsbench

#endif  // TSBENCH_SRC_SEAMS_H_
