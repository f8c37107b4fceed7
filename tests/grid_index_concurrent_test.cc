// Concurrent readers of one GridIndex: the sharded serve phase (DESIGN.md
// §10) has every shard worker query the same slices at once between
// writes, so RangeQuery and NearestPerUser must write nothing another
// thread can see — no shared scratch, no compaction on read.  Each
// reader thread here must reproduce the serial answers exactly; under
// -fsanitize=thread any write on the query path is also reported as a
// race.

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/stindex/grid_index.h"

namespace histkanon {
namespace stindex {
namespace {

constexpr size_t kReaders = 4;

struct NearestQuery {
  geo::STPoint point;
  size_t k = 0;
  mod::UserId exclude = mod::kInvalidUser;
};

struct Answers {
  std::vector<std::vector<Entry>> ranges;
  std::vector<std::vector<UserNeighbor>> nearest;
};

class GridIndexConcurrentReads : public ::testing::Test {
 protected:
  void SetUp() override {
    // 300 users x 40 samples over 8x8 cells of 250 m: ~190 samples per
    // pillar, inserted in random time order, so pillars end with unsorted
    // delta tails as well as sorted prefixes.
    common::Rng rng(20261019);
    for (mod::UserId user = 0; user < 300; ++user) {
      for (int s = 0; s < 40; ++s) {
        index_.Insert(user, geo::STPoint{{rng.Uniform(0.0, 2000.0),
                                          rng.Uniform(0.0, 2000.0)},
                                         rng.UniformInt(0, 86400)});
      }
    }
    for (int q = 0; q < 64; ++q) {
      const double x = rng.Uniform(-100.0, 2100.0);
      const double y = rng.Uniform(-100.0, 2100.0);
      const geo::Instant t = rng.UniformInt(0, 86400);
      boxes_.push_back(geo::STBox{geo::Rect{x - 300, y - 300, x + 300, y + 300},
                                  geo::TimeInterval{t - 3600, t + 3600}});
      nearest_.push_back(NearestQuery{
          geo::STPoint{{x, y}, t}, static_cast<size_t>(1 + q % 20),
          q % 3 == 0 ? static_cast<mod::UserId>(rng.UniformInt(0, 299))
                     : mod::kInvalidUser});
    }
  }

  Answers Run(size_t rotation) const {
    Answers answers;
    answers.ranges.resize(boxes_.size());
    answers.nearest.resize(nearest_.size());
    // Each reader starts at a different query so the threads hit
    // different pillars at the same moment.
    for (size_t n = 0; n < boxes_.size(); ++n) {
      const size_t i = (n + rotation) % boxes_.size();
      answers.ranges[i] = index_.RangeQuery(boxes_[i]);
      const NearestQuery& q = nearest_[i];
      answers.nearest[i] =
          index_.NearestPerUser(q.point, q.k, q.exclude, metric_);
    }
    return answers;
  }

  GridIndex index_;
  geo::STMetric metric_;
  std::vector<geo::STBox> boxes_;
  std::vector<NearestQuery> nearest_;
};

TEST_F(GridIndexConcurrentReads, EveryReaderMatchesSerialAnswers) {
  const Answers serial = Run(0);
  const uint64_t epoch = index_.epoch();
  size_t hits = 0;
  for (const std::vector<Entry>& range : serial.ranges) hits += range.size();
  ASSERT_GT(hits, 0u) << "the boxes must select samples";

  std::vector<Answers> concurrent(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, r, &concurrent] {
      concurrent[r] = Run(r * boxes_.size() / kReaders);
    });
  }
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(index_.epoch(), epoch) << "queries must not mutate the index";
  for (size_t r = 0; r < kReaders; ++r) {
    SCOPED_TRACE(testing::Message() << "reader " << r);
    for (size_t i = 0; i < boxes_.size(); ++i) {
      EXPECT_EQ(concurrent[r].ranges[i], serial.ranges[i]) << "box " << i;
      const std::vector<UserNeighbor>& got = concurrent[r].nearest[i];
      const std::vector<UserNeighbor>& want = serial.nearest[i];
      ASSERT_EQ(got.size(), want.size()) << "nearest query " << i;
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j].user, want[j].user) << "query " << i << " rank " << j;
        EXPECT_EQ(got[j].sample, want[j].sample)
            << "query " << i << " rank " << j;
        EXPECT_EQ(got[j].distance, want[j].distance)
            << "query " << i << " rank " << j;
      }
    }
  }
}

}  // namespace
}  // namespace stindex
}  // namespace histkanon
