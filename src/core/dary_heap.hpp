// A d-ary min-heap over a flat vector.
//
// The simulator's event queue is the single hottest data structure: every
// scheduled message and timer passes through one push and one pop. A 4-ary
// layout halves the tree depth of a binary heap (fewer cache lines touched
// per sift), the flat vector recycles its capacity across the whole run
// (no per-event allocation once warm), and pop() moves the root out
// instead of copying it — for event bodies holding shared_ptr payloads the
// classic top()-then-pop() double-handles every refcount.
//
// Determinism: for a strict-weak ordering whose keys are unique (the event
// queue orders by (time, seq) with seq unique), the pop sequence is the
// sorted order regardless of the heap's internal layout, so replacing the
// heap implementation cannot change simulation results.
//
// Choosing the smallest child is the pop's inner step, and which child
// wins is a coin flip to a branch predictor. An ordering that exposes an
// integer primary key (see DaryHeap) gets a select that carries the best
// key in a register and updates it with conditional moves. A plain `if`
// leaves that choice to the compiler, and GCC 12 makes it per inlining
// site: at -O3 the same loop compiled to moves in one engine loop and to
// a branch that mispredicts about half the time in another.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace bftsim {

/// Min-heap: `Less(a, b)` true means `a` pops before `b`.
///
/// `Less` may also provide `static std::int64_t primary(const T&)`, a
/// prefix of its order: a smaller primary pops first, and only equal
/// primaries are left to `Less` (EventEarlier's primary is the time).
template <typename T, unsigned Arity = 4, typename Less = std::less<T>>
class DaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  DaryHeap() = default;
  explicit DaryHeap(Less less) : less_(std::move(less)) {}

  void reserve(std::size_t n) { slots_.reserve(n); }

  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.capacity(); }

  /// The minimum element. Precondition: !empty().
  [[nodiscard]] const T& top() const noexcept { return slots_.front(); }

  void push(T value) {
    slots_.push_back(std::move(value));
    sift_up(slots_.size() - 1);
  }

  template <typename... Args>
  void emplace(Args&&... args) {
    slots_.emplace_back(std::forward<Args>(args)...);
    sift_up(slots_.size() - 1);
  }

  /// Removes and returns the minimum element by move. Precondition: !empty().
  [[nodiscard]] T pop() {
    T out = std::move(slots_.front());
    if (slots_.size() > 1) {
      slots_.front() = std::move(slots_.back());
      slots_.pop_back();
      sift_down(0);
    } else {
      slots_.pop_back();
    }
    return out;
  }

  void clear() noexcept { slots_.clear(); }

 private:
  /// Bubbles the element at `index` toward the root ("hole" technique: the
  /// element is held aside and parents shift down, one move per level
  /// instead of a three-move swap).
  void sift_up(std::size_t index) {
    T value = std::move(slots_[index]);
    while (index > 0) {
      const std::size_t parent = (index - 1) / Arity;
      if (!less_(value, slots_[parent])) break;
      slots_[index] = std::move(slots_[parent]);
      index = parent;
    }
    slots_[index] = std::move(value);
  }

  /// Sifts the element at `index` down into its position (hole technique).
  void sift_down(std::size_t index) {
    T value = std::move(slots_[index]);
    const std::size_t count = slots_.size();
    for (;;) {
      const std::size_t first_child = index * Arity + 1;
      if (first_child >= count) break;
      if ((first_child + Arity - 1) * Arity + 1 < count) {
        // The next level is under one of these children: start loading
        // each grandchild group while this level is compared.
        for (std::size_t c = first_child; c < first_child + Arity; ++c) {
          __builtin_prefetch(slots_.data() + c * Arity + 1);
        }
      }
      const std::size_t last_child =
          first_child + Arity <= count ? first_child + Arity : count;
      const std::size_t best = smallest(first_child, last_child);
      if (!less_(slots_[best], value)) break;
      slots_[index] = std::move(slots_[best]);
      index = best;
    }
    slots_[index] = std::move(value);
  }

  /// The smallest of the children in [first, last); ties go to the lower
  /// index.
  [[nodiscard]] std::size_t smallest(std::size_t first,
                                     std::size_t last) const {
    std::size_t best = first;
    if constexpr (requires(const T& t) {
                    { Less::primary(t) } -> std::same_as<std::int64_t>;
                  }) {
      std::int64_t best_key = Less::primary(slots_[first]);
      for (std::size_t child = first + 1; child < last; ++child) {
        const std::int64_t key = Less::primary(slots_[child]);
        if (key == best_key) {  // rare: the full order decides
          if (less_(slots_[child], slots_[best])) best = child;
        } else {
          keep_smaller(key, child, best_key, best);
        }
      }
    } else {
      for (std::size_t child = first + 1; child < last; ++child) {
        if (less_(slots_[child], slots_[best])) best = child;
      }
    }
    return best;
  }

  /// `if (key < best_key) { best_key = key; best = index; }`, spelled out
  /// as conditional moves on x86-64 (see the file comment).
  static void keep_smaller(std::int64_t key, std::size_t index,
                           std::int64_t& best_key, std::size_t& best) noexcept {
#if defined(__x86_64__)
    asm("cmp %[best_key], %[key]\n\t"
        "cmovl %[key], %[best_key]\n\t"
        "cmovl %[index], %[best]"
        : [best_key] "+r"(best_key), [best] "+r"(best)
        : [key] "r"(key), [index] "r"(index)
        : "cc");
#else
    if (key < best_key) {
      best_key = key;
      best = index;
    }
#endif
  }

  std::vector<T> slots_;
  [[no_unique_address]] Less less_;
};

}  // namespace bftsim
