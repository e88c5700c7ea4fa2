#include "radio/propagation_matrix.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "common/parallel.hpp"

namespace drn::radio {

PropagationMatrix::PropagationMatrix(std::size_t size, LinearGain self_gain)
    : size_(size), gains_(size * size, 0.0) {
  DRN_EXPECTS(size > 0);
  DRN_EXPECTS(self_gain.value() > 0.0);
  for (std::size_t i = 0; i < size_; ++i)
    gains_[i * size_ + i] = self_gain.value();
}

PropagationMatrix PropagationMatrix::from_placement(
    const geo::Placement& placement, const PropagationModel& model,
    LinearGain self_gain) {
  return build(nullptr, placement, model, self_gain);
}

PropagationMatrix PropagationMatrix::from_placement(
    const PropagationMatrix& prefix, const geo::Placement& placement,
    const PropagationModel& model, LinearGain self_gain) {
  return build(&prefix, placement, model, self_gain);
}

PropagationMatrix PropagationMatrix::build(const PropagationMatrix* prefix,
                                           const geo::Placement& placement,
                                           const PropagationModel& model,
                                           LinearGain self_gain) {
  PropagationMatrix m(placement.size(), self_gain);
  const std::size_t n = m.size_;
  const std::size_t known = prefix != nullptr ? prefix->size_ : 0;
  DRN_EXPECTS(known <= n);
  double* const gains = m.gains_.data();
  // Rows in parallel, each written by one block: first the upper triangle
  // (one model call per pair, i < j, as a serial double loop makes it, or a
  // copy of the prefix's entry when both stations are in it), then the lower
  // triangle copied from the finished upper one.
  parallel_blocks(n, block_grain(n), 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::size_t j = i + 1;
      for (; j < known; ++j) gains[i * n + j] = prefix->gains_[i * known + j];
      for (; j < n; ++j)
        gains[i * n + j] = model.power_gain(placement[i], placement[j]).value();
    }
  });
  parallel_blocks(n, block_grain(n), 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t j = 0; j < i; ++j) gains[i * n + j] = gains[j * n + i];
  });
  return m;
}

std::size_t PropagationMatrix::index(StationId rx, StationId tx) const {
  DRN_EXPECTS(rx < size_ && tx < size_);
  return static_cast<std::size_t>(rx) * size_ + tx;
}

void PropagationMatrix::set_gain(StationId a, StationId b, LinearGain gain) {
  DRN_EXPECTS(gain.value() > 0.0);
  gains_[index(a, b)] = gain.value();
  gains_[index(b, a)] = gain.value();
}

bool PropagationMatrix::is_symmetric() const {
  for (std::size_t i = 0; i < size_; ++i)
    for (std::size_t j = i + 1; j < size_; ++j)
      if (gains_[i * size_ + j] != gains_[j * size_ + i]) return false;
  return true;
}

LinearGain PropagationMatrix::strongest_neighbor_gain(StationId rx) const {
  DRN_EXPECTS(rx < size_);
  double best = 0.0;
  for (std::size_t tx = 0; tx < size_; ++tx)
    if (tx != rx) best = std::max(best, gains_[rx * size_ + tx]);
  return LinearGain{best};
}

}  // namespace drn::radio
