// MsgDedup — exactly-once filter over per-origin message ids.
//
// Every layer that must act on a message at most once keys it by
// (origin, seq): rbcast suppresses relay echoes, CT-ABcast skips messages a
// decision already delivered, and the rbcast replacement facade suppresses
// copies of one message arriving through two protocol versions.  They share
// this one implementation.
//
// Ids from one origin are contiguous from base+1 within one incarnation
// epoch (base = epoch << kIncarnationSeqShift, runtime/host.hpp), so the
// common case is a watermark bump — O(1), no allocation, and memory that
// stays flat over arbitrarily long runs.  Ids that arrive past a gap sit in
// an ahead-set of coalesced [start, end) runs until the gap fills: memory
// scales with arrival fragmentation, not with message count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "util/ids.hpp"

namespace dpu {

class MsgDedup {
 public:
  /// `max_old_epochs` == kKeepAllEpochs keeps every earlier incarnation's
  /// window (exact for any number of restarts; memory O(restarts)).
  static constexpr std::size_t kKeepAllEpochs = 0;

  /// Sized for `world` origins.  With `max_old_epochs` > 0, each origin
  /// keeps only that many archived windows; ids of an epoch older than all
  /// of them count as already seen (suppression errs on the no-duplicates
  /// side for copies that are several restarts stale).
  void reset(std::size_t world, std::size_t max_old_epochs = kKeepAllEpochs);

  /// Returns true on first sighting of `id` (and records it), false for a
  /// duplicate or an origin outside the world.
  [[nodiscard]] bool mark_seen(const MsgId& id);

  /// Whether `id` was already recorded; never records.
  [[nodiscard]] bool seen(const MsgId& id) const;

  /// Retained ahead-runs across all origins and epochs.  0 while every
  /// origin's ids arrive in order — the memory bound under sustained load
  /// and churn (surfaced as the `dedup_entries` scenario counter for the
  /// rbcast facade).
  [[nodiscard]] std::size_t entries() const;

 private:
  struct Window {
    std::uint64_t next = 1;  ///< lowest id not yet seen contiguously
    /// Seen ids beyond `next`, as [start, end) runs keyed by start.
    std::map<std::uint64_t, std::uint64_t> ahead;

    [[nodiscard]] bool contains(std::uint64_t seq) const;
    bool mark(std::uint64_t seq);
  };
  struct Origin {
    std::uint64_t epoch = 0;
    Window cur;
    /// Earlier incarnations' windows: late copies of a dead incarnation's
    /// messages must still dedup — and still deliver once.
    std::map<std::uint64_t, Window> old_epochs;
  };

  [[nodiscard]] static Window fresh_window(std::uint64_t epoch);
  /// Whether `epoch` predates every archived window of `o` after
  /// compaction dropped some (treated as seen).
  [[nodiscard]] bool compacted_away(const Origin& o, std::uint64_t epoch) const;

  std::vector<Origin> origins_;
  std::size_t max_old_epochs_ = kKeepAllEpochs;
};

}  // namespace dpu
