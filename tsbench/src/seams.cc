#include "seams.h"

#include <cstdio>
#include <cstdlib>

namespace tsbench {

void TimingIndex::Insert(hk::mod::UserId, const hk::geo::STPoint&) {
  std::fprintf(stderr, "tsbench: TimingIndex::Insert called\n");
  std::abort();
}

std::vector<hk::stindex::Entry> TimingIndex::RangeQuery(
    const hk::geo::STBox& box) const {
  SpanScope span(spans_, Layer::kStindexRange);
  std::vector<hk::stindex::Entry> entries = target_->RangeQuery(box);
  span.set_value(entries.size());
  return entries;
}

std::vector<hk::stindex::UserNeighbor> TimingIndex::NearestPerUser(
    const hk::geo::STPoint& query, size_t k, hk::mod::UserId exclude,
    const hk::geo::STMetric& metric) const {
  SpanScope span(spans_, Layer::kStindexNearest);
  std::vector<hk::stindex::UserNeighbor> users =
      target_->NearestPerUser(query, k, exclude, metric);
  span.set_value(users.size());
  return users;
}

hk::common::Result<const hk::mod::Phl*> TimingStore::GetPhl(
    hk::mod::UserId user) const {
  SpanScope span(spans_, Layer::kModGetPhl);
  return target_->GetPhl(user);
}

std::vector<hk::mod::UserId> TimingStore::UsersWithSampleIn(
    const hk::geo::STBox& box) const {
  SpanScope span(spans_, Layer::kModUsersIn);
  std::vector<hk::mod::UserId> users = target_->UsersWithSampleIn(box);
  span.set_value(users.size());
  return users;
}

size_t TimingStore::CountUsersWithSampleIn(const hk::geo::STBox& box) const {
  SpanScope span(spans_, Layer::kModCountIn);
  const size_t count = target_->CountUsersWithSampleIn(box);
  span.set_value(count);
  return count;
}

std::vector<hk::mod::UserId> TimingStore::LtConsistentUsers(
    const std::vector<hk::geo::STBox>& contexts,
    hk::mod::UserId exclude) const {
  SpanScope span(spans_, Layer::kModLtConsistent);
  std::vector<hk::mod::UserId> users =
      target_->LtConsistentUsers(contexts, exclude);
  span.set_value(users.size());
  return users;
}

hk::common::Status TimingSink::Append(std::string_view bytes) {
  SpanScope span(spans_, Layer::kDurAppend);
  span.set_value(bytes.size());
  return target_->Append(bytes);
}

hk::common::Status TimingSink::Sync() {
  SpanScope span(spans_, Layer::kDurSync);
  return target_->Sync();
}

}  // namespace tsbench
