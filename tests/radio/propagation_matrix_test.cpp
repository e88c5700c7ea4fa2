#include "radio/propagation_matrix.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace drn::radio {
namespace {

TEST(PropagationMatrix, EmptyConstructionHasSelfGainDiagonal) {
  const PropagationMatrix m(3, LinearGain{2.0});
  EXPECT_EQ(m.size(), 3u);
  for (StationId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m.gain(i, i), 2.0);
    for (StationId j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(m.gain(i, j), 0.0);
      }
    }
  }
}

TEST(PropagationMatrix, FromPlacementMatchesModel) {
  const geo::Placement placement = {{0.0, 0.0}, {2.0, 0.0}, {0.0, 4.0}};
  const FreeSpacePropagation model;
  const auto m = PropagationMatrix::from_placement(placement, model);
  EXPECT_DOUBLE_EQ(m.gain(0, 1), 0.25);          // r = 2
  EXPECT_DOUBLE_EQ(m.gain(0, 2), 1.0 / 16.0);    // r = 4
  EXPECT_DOUBLE_EQ(m.gain(1, 2), 1.0 / 20.0);    // r = sqrt(20)
  EXPECT_DOUBLE_EQ(m.gain(0, 0), 1.0);           // default self gain
}

TEST(PropagationMatrix, IsSymmetric) {
  Rng rng(4);
  const auto placement = geo::uniform_disc(30, 100.0, rng);
  const FreeSpacePropagation model;
  const auto m = PropagationMatrix::from_placement(placement, model);
  EXPECT_TRUE(m.is_symmetric());
  for (StationId i = 0; i < m.size(); ++i)
    for (StationId j = 0; j < m.size(); ++j)
      EXPECT_DOUBLE_EQ(m.gain(i, j), m.gain(j, i));
}

TEST(PropagationMatrix, SetGainUpdatesBothDirections) {
  PropagationMatrix m(4);
  m.set_gain(1, 3, radio::LinearGain{0.5});
  EXPECT_DOUBLE_EQ(m.gain(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(m.gain(3, 1), 0.5);
  EXPECT_TRUE(m.is_symmetric());
}

TEST(PropagationMatrix, StrongestNeighborGain) {
  PropagationMatrix m(3);
  m.set_gain(0, 1, radio::LinearGain{0.3});
  m.set_gain(0, 2, radio::LinearGain{0.7});
  m.set_gain(1, 2, radio::LinearGain{0.1});
  EXPECT_DOUBLE_EQ(m.strongest_neighbor_gain(0).value(), 0.7);
  EXPECT_DOUBLE_EQ(m.strongest_neighbor_gain(1).value(), 0.3);
  EXPECT_DOUBLE_EQ(m.strongest_neighbor_gain(2).value(), 0.7);
}

TEST(PropagationMatrix, Contracts) {
  EXPECT_THROW(PropagationMatrix(0), ContractViolation);
  EXPECT_THROW(PropagationMatrix(2, LinearGain{0.0}), ContractViolation);
  PropagationMatrix m(2);
  EXPECT_THROW((void)m.gain(0, 2), ContractViolation);
  EXPECT_THROW(m.set_gain(0, 1, radio::LinearGain{0.0}), ContractViolation);
}

TEST(PropagationMatrix, SelfGainConfigurable) {
  const geo::Placement placement = {{0.0, 0.0}, {1.0, 0.0}};
  const FreeSpacePropagation model;
  const auto m =
      PropagationMatrix::from_placement(placement, model, /*self_gain=*/LinearGain{42.0});
  EXPECT_DOUBLE_EQ(m.gain(0, 0), 42.0);
  EXPECT_DOUBLE_EQ(m.gain(1, 1), 42.0);
}

// The serial double loop from_placement's parallel rows must reproduce bit
// for bit: one model call per pair i < j, stored in both triangles.
std::vector<double> serial_gains(const geo::Placement& placement,
                                 const PropagationModel& model,
                                 double self_gain) {
  const std::size_t n = placement.size();
  std::vector<double> g(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    g[i * n + i] = self_gain;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = model.power_gain(placement[i], placement[j]).value();
      g[i * n + j] = v;
      g[j * n + i] = v;
    }
  }
  return g;
}

// Rows are contiguous, so row(0) is the whole row-major matrix.
bool bit_equal(const PropagationMatrix& m, const std::vector<double>& g) {
  return g.size() == m.size() * m.size() &&
         std::memcmp(m.row(0), g.data(), g.size() * sizeof(double)) == 0;
}

TEST(PropagationMatrix, ParallelRowsMatchASerialDoubleLoopBitForBit) {
  const auto free_space = std::make_shared<FreeSpacePropagation>();
  const DualSlopePropagation dual_slope(Meters{100.0});
  const LogNormalShadowing shadowing(free_space, Decibels{6.0}, 77);
  const std::vector<std::pair<std::string, const PropagationModel*>> models{
      {"free space", free_space.get()},
      {"dual slope", &dual_slope},
      {"shadowing", &shadowing}};
  for (const std::size_t n : {std::size_t{300}, std::size_t{1025}}) {
    Rng rng(n);
    const auto placement = geo::uniform_disc(n, 2000.0, rng);
    for (const auto& [name, model] : models) {
      const auto m =
          PropagationMatrix::from_placement(placement, *model, LinearGain{3.0});
      EXPECT_TRUE(bit_equal(m, serial_gains(placement, *model, 3.0)))
          << name << " at M = " << n;
    }
  }
}

TEST(PropagationMatrix, ExtendingAPrefixMatchesTheFreshBuildBitForBit) {
  const auto free_space = std::make_shared<FreeSpacePropagation>();
  const LogNormalShadowing shadowing(free_space, Decibels{6.0}, 5);
  Rng rng(11);
  const auto placement = geo::uniform_disc(310, 1500.0, rng);
  for (const std::size_t known : {std::size_t{1}, std::size_t{300},
                                  std::size_t{310}}) {
    const geo::Placement head(placement.begin(),
                              placement.begin() +
                                  static_cast<std::ptrdiff_t>(known));
    const auto prefix =
        PropagationMatrix::from_placement(head, shadowing, LinearGain{2.0});
    const auto extended = PropagationMatrix::from_placement(
        prefix, placement, shadowing, LinearGain{2.0});
    EXPECT_TRUE(bit_equal(extended, serial_gains(placement, shadowing, 2.0)))
        << "prefix of " << known;
  }
}

TEST(PropagationMatrix, APrefixLargerThanThePlacementIsRejected) {
  const FreeSpacePropagation model;
  const geo::Placement three = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  const auto prefix = PropagationMatrix::from_placement(three, model);
  const geo::Placement two(three.begin(), three.begin() + 2);
  EXPECT_THROW((void)PropagationMatrix::from_placement(prefix, two, model),
               ContractViolation);
}

}  // namespace
}  // namespace drn::radio
