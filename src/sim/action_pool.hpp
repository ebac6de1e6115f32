// ActionPool — pooled sim::Action nodes threaded into intrusive FIFOs.
//
// The MSHR file's merged fills and the blocking directory's queued requests
// are short per-line FIFOs of continuations. Per-line std::vector /
// std::deque containers allocated on almost every miss; here every FIFO is
// a (head, tail) pair of links into one recycled node pool, so a
// steady-state push or pop never touches the allocator. The pool grows by a
// chunk only when more continuations wait at once than ever before, and its
// nodes never move, so a drained FIFO stays valid while the pool grows.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace tdn::sim {

class ActionPool {
  struct Node {
    Action fn;
    Node* next = nullptr;
  };

 public:
  /// A FIFO of pooled actions, empty by default. Its owner keeps the
  /// handle; the nodes belong to the pool it was filled from.
  class Fifo {
   public:
    bool empty() const noexcept { return head_ == nullptr; }

   private:
    friend class ActionPool;
    Node* head_ = nullptr;
    Node* tail_ = nullptr;
  };

  /// A FIFO detached from its owner: iterate it front to back (moving the
  /// actions out is fine), and its destructor returns every node.
  class Drain {
   public:
    class iterator {
     public:
      explicit iterator(Node* n) noexcept : n_(n) {}
      Action& operator*() const noexcept { return n_->fn; }
      iterator& operator++() noexcept {
        n_ = n_->next;
        return *this;
      }
      bool operator==(const iterator& o) const noexcept { return n_ == o.n_; }

     private:
      Node* n_;
    };

    Drain(ActionPool* pool, Node* head) noexcept : pool_(pool), head_(head) {}
    Drain(Drain&& o) noexcept
        : pool_(o.pool_), head_(std::exchange(o.head_, nullptr)) {}
    Drain(const Drain&) = delete;
    Drain& operator=(const Drain&) = delete;
    Drain& operator=(Drain&&) = delete;
    ~Drain() {
      while (head_ != nullptr) pool_->release(std::exchange(head_, head_->next));
    }

    iterator begin() const noexcept { return iterator(head_); }
    iterator end() const noexcept { return iterator(nullptr); }
    std::size_t size() const noexcept {
      std::size_t n = 0;
      for (Node* p = head_; p != nullptr; p = p->next) ++n;
      return n;
    }

   private:
    ActionPool* pool_;
    Node* head_;
  };

  ActionPool() = default;
  ActionPool(const ActionPool&) = delete;
  ActionPool& operator=(const ActionPool&) = delete;
  ActionPool(ActionPool&& o) noexcept
      : chunks_(std::move(o.chunks_)), free_(std::exchange(o.free_, nullptr)) {}
  ActionPool& operator=(ActionPool&&) = delete;

  /// Append a callable to @p q. If its capture constructor throws, the
  /// node stays free and @p q is unchanged.
  template <typename F>
  void push(Fifo& q, F&& fn) {
    if (free_ == nullptr) grow();
    Node* n = free_;
    if constexpr (std::is_same_v<std::decay_t<F>, Action>) {
      n->fn = std::move(fn);
    } else {
      n->fn.emplace(std::forward<F>(fn));
    }
    free_ = n->next;
    n->next = nullptr;
    if (q.tail_ == nullptr) {
      q.head_ = n;
    } else {
      q.tail_->next = n;
    }
    q.tail_ = n;
  }

  /// Remove and return the front action of a non-empty @p q.
  Action pop(Fifo& q) noexcept {
    Node* n = q.head_;
    q.head_ = n->next;
    if (q.head_ == nullptr) q.tail_ = nullptr;
    Action fn = std::move(n->fn);
    release(n);
    return fn;
  }

  /// Detach all of @p q (leaving it empty) for iteration.
  Drain drain(Fifo& q) noexcept {
    Node* head = q.head_;
    q = Fifo{};
    return Drain(this, head);
  }

 private:
  static constexpr std::size_t kChunk = 64;

  void grow() {
    chunks_.push_back(std::make_unique<Node[]>(kChunk));
    Node* base = chunks_.back().get();
    for (std::size_t i = 0; i < kChunk; ++i) {
      base[i].next = free_;
      free_ = base + i;
    }
  }
  void release(Node* n) noexcept {
    n->fn.reset();
    n->next = free_;
    free_ = n;
  }

  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_ = nullptr;
};

}  // namespace tdn::sim
