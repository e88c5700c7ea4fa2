#include "common/id_sorted_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/expects.hpp"

namespace drn {
namespace {

std::vector<std::uint64_t> ids(const IdSortedSet<std::string>& set) {
  std::vector<std::uint64_t> out;
  for (const auto& e : set) out.push_back(e.id);
  return out;
}

TEST(IdSortedSet, IteratesAscendingAfterOutOfOrderInserts) {
  IdSortedSet<std::string> set;
  set.insert(7, "g");
  set.insert(2, "b");
  set.insert(9, "i");
  set.insert(4, "d");
  EXPECT_EQ(ids(set), (std::vector<std::uint64_t>{2, 4, 7, 9}));
  EXPECT_EQ(set.size(), 4u);
  std::string values;
  for (const auto& [id, value] : set) values += value;
  EXPECT_EQ(values, "bdgi");
}

TEST(IdSortedSet, ExtractReturnsAndRemoves) {
  IdSortedSet<std::string> set;
  set.insert(1, "a");
  set.insert(5, "e");
  set.insert(3, "c") += "!";  // insert hands back the stored record
  EXPECT_TRUE(set.contains(3));
  EXPECT_EQ(set.extract(3), "c!");
  EXPECT_FALSE(set.contains(3));
  EXPECT_EQ(ids(set), (std::vector<std::uint64_t>{1, 5}));
  // The id is free again once extracted.
  set.insert(3, "z");
  EXPECT_EQ(ids(set), (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(IdSortedSet, EraseIfVisitsInAscendingOrder) {
  IdSortedSet<std::string> set;
  for (const std::uint64_t id : {8u, 1u, 6u, 3u, 5u}) set.insert(id, "x");
  std::vector<std::uint64_t> visited;
  set.erase_if([&](std::uint64_t id, std::string& value) {
    visited.push_back(id);
    value = "kept";
    return id % 2 == 0;
  });
  EXPECT_EQ(visited, (std::vector<std::uint64_t>{1, 3, 5, 6, 8}));
  EXPECT_EQ(ids(set), (std::vector<std::uint64_t>{1, 3, 5}));
  for (const auto& e : set) EXPECT_EQ(e.value, "kept");
}

TEST(IdSortedSet, DuplicateInsertAndMissingExtractViolateContracts) {
  IdSortedSet<std::string> set;
  set.insert(4, "d");
  EXPECT_THROW(set.insert(4, "again"), ContractViolation);
  EXPECT_THROW((void)set.extract(5), ContractViolation);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.extract(4), "d");
  EXPECT_THROW((void)set.extract(4), ContractViolation);
}

}  // namespace
}  // namespace drn
