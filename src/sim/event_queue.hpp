// Pending-event set for the discrete-event simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace srp::sim {

/// Opaque handle identifying a scheduled event so it can be cancelled.
/// Never 0, so 0 can mean "no event".
using EventId = std::uint64_t;

/// Move-only `void()` callable with a small inline buffer.
///
/// Callables up to kInlineBytes (8-byte aligned, nothrow-movable) live in
/// the object itself; anything larger is boxed on the heap.  56 B holds a
/// net::Arrival (48 B) plus one pointer, i.e. the per-hop arrival events
/// ([peer, arrival], [this, arrival]), so the forwarding path schedules
/// without allocating.  Like std::function, operator() is const but may
/// run a `mutable` callable.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  /// True when a callable of type @p F is stored without allocating.
  template <class F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::uint64_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventCallback() noexcept = default;

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                     std::is_constructible_v<D, F> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof boxed);
      ops_ = &kBoxedOps<D>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { take(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the callable.  Precondition: non-empty.
  void operator()() const { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable at dst from src and destroys src;
    /// nullptr when the stored bytes can simply be copied.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr when there is nothing to destroy.
    void (*destroy)(void* self) noexcept;
  };

  template <class D>
  static D* boxed(void* self) {
    D* p;
    std::memcpy(&p, self, sizeof p);
    return p;
  }

  template <class D>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<D> &&
                                   std::is_trivially_destructible_v<D>;

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* self) { (*std::launder(static_cast<D*>(self)))(); },
      kTrivial<D> ? nullptr
                  : +[](void* dst, void* src) noexcept {
                      D* from = std::launder(static_cast<D*>(src));
                      ::new (dst) D(std::move(*from));
                      from->~D();
                    },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* self) noexcept {
              std::launder(static_cast<D*>(self))->~D();
            }};

  template <class D>
  static constexpr Ops kBoxedOps{
      [](void* self) { (*boxed<D>(self))(); },
      nullptr,  // the pointer moves with the bytes
      [](void* self) noexcept { delete boxed<D>(self); }};

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void take(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  alignas(std::uint64_t) mutable unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Min-heap of timestamped callbacks with stable FIFO ordering among
/// events scheduled for the same instant (ties break on insertion order,
/// which keeps runs deterministic).
///
/// Events live in a slot vector recycled through a free list; the heap
/// holds only 16-byte {when, id} nodes.  An id is
/// `(insertion_seq << kSlotBits) | slot`: insertion seqs strictly
/// increase, so ordering on (when, id) is ordering on (when, insertion
/// seq).  A slot remembers the id of its current occupant, so a stale id
/// (event already run or cancelled, slot possibly reused) is detected by
/// one compare.  cancel() is O(1) and destroys the callback's captures at
/// once; its heap node is skipped when it reaches the top.  schedule/pop
/// are O(log n) on a 4-ary heap, and allocation-free once the slot and
/// heap vectors are warm and the callable fits inline.
class EventQueue {
 public:
  using Callback = EventCallback;

  /// Schedules @p cb to run at @p when.  Returns a handle for cancel().
  EventId schedule(Time when, Callback cb);

  /// Cancels a previously scheduled event.  Cancelling an event that has
  /// already run (or was already cancelled), or id 0, is a harmless no-op.
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events still pending.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest live event.  Precondition: !empty().
  std::pair<Time, Callback> pop();

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct Node {
    Time when;
    EventId id;
  };
  struct Slot {
    EventId id = 0;  // occupant's id; 0 while the slot is free
    Callback cb;
  };

  static bool before(const Node& a, const Node& b) {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  }
  [[nodiscard]] bool is_live(const Node& n) const {
    return slots_[n.id & kSlotMask].id == n.id;
  }

  void sift_up(std::size_t i, Node node);
  void pop_heap_top() const;
  /// Pops heap nodes whose events were cancelled.
  void drop_cancelled() const;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // free slot indices, LIFO
  mutable std::vector<Node> heap_;
  std::size_t live_ = 0;
  EventId next_seq_ = 1;
};

}  // namespace srp::sim
