// Miss Status Holding Registers: outstanding-miss tracking with same-line
// request merging and a finite capacity (structural hazard).
//
// The file is a fixed array of `capacity` entries, searched linearly (16 by
// default, so a probe is a short scan of one or two cache lines). Each
// entry's fill callbacks are an intrusive FIFO of pooled inline actions:
// registering, merging and completing a miss allocate nothing once the
// pool has warmed up.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/action_pool.hpp"
#include "stats/counters.hpp"

namespace tdn::cache {

class MshrFile {
 public:
  explicit MshrFile(unsigned capacity = 16) : entries_(capacity) {}

  /// Result of registering a miss for @p line_addr.
  enum class Outcome {
    NewEntry,  ///< primary miss: caller must launch the transaction
    Merged,    ///< secondary miss: callback queued behind the in-flight one
    Full,      ///< no free MSHR: caller must retry later
  };

  /// Register a miss. On Outcome::Full @p on_fill is guaranteed untouched
  /// (not moved from): the caller keeps ownership and must retry later —
  /// a dropped fill callback would strand the access forever.
  template <typename F>
  Outcome register_miss(Addr line_addr, F&& on_fill) {
    Entry* e = find(line_addr);
    if (e != nullptr) {
      fills_.push(e->fills, std::forward<F>(on_fill));
      merges_.inc();
      return Outcome::Merged;
    }
    // Capacity is checked before consuming on_fill: on Full the callback
    // must remain with the caller (see above) so it can be retried.
    e = find(kFree);
    if (e == nullptr) {
      full_.inc();
      return Outcome::Full;
    }
    fills_.push(e->fills, std::forward<F>(on_fill));
    e->line = line_addr;
    ++outstanding_;
    return Outcome::NewEntry;
  }

  bool in_flight(Addr line_addr) const {
    return const_cast<MshrFile*>(this)->find(line_addr) != nullptr;
  }
  std::size_t outstanding() const noexcept { return outstanding_; }
  unsigned capacity() const noexcept {
    return static_cast<unsigned>(entries_.size());
  }

  /// The fill callbacks of one completed miss, primary first; iterate it to
  /// run or reschedule them. The entry is already free when this returns.
  using Fills = sim::ActionPool::Drain;
  /// Complete the miss: frees the entry and returns all queued callbacks
  /// (primary first) for the caller to run.
  Fills complete(Addr line_addr);

  std::uint64_t merges() const noexcept { return merges_.value(); }
  std::uint64_t structural_stalls() const noexcept { return full_.value(); }

 private:
  /// Line address of an unused entry (never a line-aligned address).
  static constexpr Addr kFree = ~Addr{0};
  struct Entry {
    Addr line = kFree;
    sim::ActionPool::Fifo fills;
  };
  Entry* find(Addr line_addr) {
    for (Entry& e : entries_)
      if (e.line == line_addr) return &e;
    return nullptr;
  }

  std::vector<Entry> entries_;
  std::size_t outstanding_ = 0;
  sim::ActionPool fills_;
  stats::Counter merges_;
  stats::Counter full_;
};

}  // namespace tdn::cache
