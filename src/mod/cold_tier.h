// The cold tier of tiered PHL storage (DESIGN.md §16): immutable on-disk
// segments holding samples sealed out of the hot in-memory tier.
//
// A segment is written once (journal-first: tmp file + fsync + atomic
// rename — a crash never leaves a half-written segment visible) and never
// modified.  Files reuse the dur framing (magic + CRC-framed records), so
// bit rot and torn writes are detected by the same scan that protects the
// write-ahead journal; a segment that fails to load is a FAULT, counted
// and surfaced to the serving layer, never silently dropped data.
//
// Memory stays bounded: only the manifest (a few dozen bytes per segment)
// is always resident; segment contents fault in on demand and are evicted
// LRU beyond a residency cap.

#ifndef HISTKANON_SRC_MOD_COLD_TIER_H_
#define HISTKANON_SRC_MOD_COLD_TIER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/geo/stbox.h"
#include "src/mod/phl.h"
#include "src/mod/types.h"

namespace histkanon {
namespace mod {

/// \brief Cold-tier construction parameters.
struct ColdTierOptions {
  /// Directory segment files live in; empty disables the tier.
  std::string dir;
  /// Segments kept resident at once (LRU beyond it).  Residency never
  /// changes answers — this knob is NOT part of the durability
  /// fingerprint.
  size_t max_resident_segments = 8;
};

/// \brief Constant-size manifest entry for one sealed segment.
struct ColdSegmentInfo {
  uint64_t seq = 0;
  /// Time range covered by the segment's samples.  Ranges of adjacent
  /// segments may overlap globally (min-keep retention can hold a sample
  /// back across a seal), but each USER's samples are strictly ascending
  /// across ascending seq — the invariant every lookup leans on.
  geo::Instant t_lo = 0;
  geo::Instant t_hi = 0;
  uint64_t samples = 0;
};

/// \brief The on-disk cold tier: seals segments, faults them back in.
class ColdTier : public PhlArchive {
 public:
  explicit ColdTier(ColdTierOptions options);

  bool enabled() const { return !options_.dir.empty(); }
  const std::string& dir() const { return options_.dir; }

  /// Durably writes segment `seq` (tmp + fsync + atomic rename) holding
  /// `users` (ascending user id, each user's samples ascending in time)
  /// and appends it to the manifest.  On any failure NOTHING is
  /// registered and the hot tier owner must not evict — the fail-closed
  /// contract ("never half-evicted").
  common::Status WriteSegment(
      uint64_t seq,
      const std::vector<std::pair<UserId, std::vector<geo::STPoint>>>& users);

  /// Restore path: re-registers a segment already on disk, verifying the
  /// file exists and its header matches `info` (a snapshot that references
  /// a missing or mismatched segment must fail restore, not limp).
  common::Status RegisterExisting(const ColdSegmentInfo& info);

  const std::vector<ColdSegmentInfo>& manifest() const { return manifest_; }
  uint64_t total_samples() const;

  /// Cold-read faults so far (load errors, CRC mismatches, injected
  /// mod.cold.load).  The serving layer snapshots this around a request
  /// and sheds when it moved — a faulted read must never become a wrong
  /// anonymity set.
  uint64_t fault_count() const { return fault_count_; }
  /// Segment loads that went to disk (LRU misses).
  uint64_t load_count() const { return load_count_; }
  size_t resident_segments() const { return resident_.size(); }
  uint64_t resident_bytes() const { return resident_bytes_; }

  std::string SegmentPath(uint64_t seq) const;

  // PhlArchive:
  bool CollectArchived(UserId user, geo::Instant lo, geo::Instant hi,
                       std::vector<geo::STPoint>* out) const override;

  /// Invokes `fn(user, sample)` for every archived sample with t in
  /// [lo, hi], faulting in each overlapping segment (one at a time, in
  /// ascending seq).  Returns false on a load fault.
  bool ForEachSampleIn(
      geo::Instant lo, geo::Instant hi,
      const std::function<void(UserId, const geo::STPoint&)>& fn) const;

 private:
  struct LoadedSegment {
    std::map<UserId, std::vector<geo::STPoint>> users;
    uint64_t bytes = 0;
    uint64_t last_use = 0;
  };

  /// The resident segment for `info`, loading (and LRU-evicting) as
  /// needed.  nullptr = fault (already counted).  The pointer is valid
  /// only until the next LoadSegment call.
  const LoadedSegment* LoadSegment(const ColdSegmentInfo& info) const;

  ColdTierOptions options_;
  std::vector<ColdSegmentInfo> manifest_;  // ascending seq
  // LRU residency is mutated by const reads and is single-threaded: only
  // a TrustedServer without a read_index builds a cold tier
  // (trusted_server.cc), so the sharded serve phase never reaches it.
  mutable std::map<uint64_t, LoadedSegment> resident_;
  mutable uint64_t resident_bytes_ = 0;
  mutable uint64_t lru_tick_ = 0;
  mutable uint64_t fault_count_ = 0;
  mutable uint64_t load_count_ = 0;
};

}  // namespace mod
}  // namespace histkanon

#endif  // HISTKANON_SRC_MOD_COLD_TIER_H_
