// Flat id-sorted set of transmission records, shared by the interference
// engines and the simulator's radio medium.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/expects.hpp"

namespace drn {

/// Records of type T keyed by a unique 64-bit id, held in one vector sorted
/// by id. The hot loops walk the whole set once per opened reception, so
/// locality beats asymptotics: iteration is one contiguous ascending-id scan
/// (the order a std::map would give, so sums over the set accumulate in a
/// fixed order and stay bit-identical), and the simulator assigns ids
/// monotonically, so insert is an amortized push_back and erase a short
/// memmove over the handful of concurrent transmissions.
template <typename T>
class IdSortedSet {
 public:
  struct Entry {
    std::uint64_t id;
    T value;
  };

  /// Adds `value` under `id`, which must not be present.
  T& insert(std::uint64_t id, T value) {
    const auto it = lower_bound(id);
    DRN_EXPECTS(it == entries_.end() || it->id != id);
    return entries_.insert(it, Entry{id, std::move(value)})->value;
  }

  /// Removes and returns the record under `id`, which must be present.
  T extract(std::uint64_t id) {
    const auto it = lower_bound(id);
    DRN_EXPECTS(it != entries_.end() && it->id == id);
    T value = std::move(it->value);
    entries_.erase(it);
    return value;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), id,
                                     id_less);
    return it != entries_.end() && it->id == id;
  }

  /// Removes the records matching `pred(id, value)`, visiting in ascending
  /// id order (side effects in the predicate observe that order).
  template <typename Pred>
  void erase_if(Pred&& pred) {
    std::erase_if(entries_, [&](Entry& e) { return pred(e.id, e.value); });
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

 private:
  static bool id_less(const Entry& e, std::uint64_t id) { return e.id < id; }

  typename std::vector<Entry>::iterator lower_bound(std::uint64_t id) {
    return std::lower_bound(entries_.begin(), entries_.end(), id, id_less);
  }

  std::vector<Entry> entries_;
};

}  // namespace drn
