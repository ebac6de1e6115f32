// Joiner — completion join for a dynamic set of asynchronous operations.
// Usage: get one from a JoinerPool, call add() before launching each async
// operation and complete() from its callback; call arm() once all
// operations have been issued. The done callback fires exactly once, when
// armed and the pending count reaches zero (synchronously if nothing is
// pending). A joiner returns to its pool just before its done callback
// runs, so callbacks capture it as a plain pointer and must not touch it
// after it fired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "sim/inline_function.hpp"

namespace tdn::sim {

class JoinerPool;

class Joiner {
 public:
  /// Inline budget of the done callback: a completion std::function plus a
  /// few ids.
  using Done = InlineFunction<void(), 48>;

  Joiner() = default;

  void add(std::uint64_t n = 1) { pending_ += n; }

  void complete() {
    TDN_ASSERT(pending_ > 0);
    --pending_;
    check();
  }

  void arm() {
    TDN_ASSERT(!armed_);
    armed_ = true;
    check();
  }

  std::uint64_t pending() const noexcept { return pending_; }

 private:
  friend class JoinerPool;
  inline void check();

  Done done_;
  std::uint64_t pending_ = 0;
  bool armed_ = false;
  JoinerPool* pool_ = nullptr;
  Joiner* next_free_ = nullptr;
};

/// Recycled joiners: acquiring and firing one allocates nothing once the
/// pool has grown to the peak number of joins in flight. Joiners never
/// move, so pointers to them stay valid while the pool grows.
class JoinerPool {
 public:
  JoinerPool() = default;
  JoinerPool(const JoinerPool&) = delete;
  JoinerPool& operator=(const JoinerPool&) = delete;

  template <typename F>
  Joiner* make(F&& done) {
    if (free_ == nullptr) grow();
    Joiner* j = free_;
    j->done_.emplace(std::forward<F>(done));
    free_ = j->next_free_;
    j->pending_ = 0;
    j->armed_ = false;
    j->pool_ = this;
    return j;
  }

 private:
  friend class Joiner;
  static constexpr std::size_t kChunk = 32;

  void grow() {
    chunks_.push_back(std::make_unique<Joiner[]>(kChunk));
    for (std::size_t i = 0; i < kChunk; ++i) release(&chunks_.back()[i]);
  }
  void release(Joiner* j) noexcept {
    j->next_free_ = free_;
    free_ = j;
  }

  std::vector<std::unique_ptr<Joiner[]>> chunks_;
  Joiner* free_ = nullptr;
};

inline void Joiner::check() {
  if (armed_ && pending_ == 0 && done_) {
    Done d = std::move(done_);
    pool_->release(this);
    d();
  }
}

}  // namespace tdn::sim
