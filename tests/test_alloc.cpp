#include "gpfs/alloc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"

namespace mgfs::gpfs {
namespace {

TEST(AllocationMap, CountsStartFull) {
  AllocationMap m({100, 200, 300});
  EXPECT_EQ(m.nsd_count(), 3u);
  EXPECT_EQ(m.total_capacity(), 600u);
  EXPECT_EQ(m.total_free(), 600u);
  EXPECT_EQ(m.free_blocks(2), 300u);
}

TEST(AllocationMap, AllocateOnTracksUsage) {
  AllocationMap m({10});
  auto a = m.allocate_on(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->nsd, 0u);
  EXPECT_TRUE(m.is_allocated(*a));
  EXPECT_EQ(m.free_blocks(0), 9u);
}

TEST(AllocationMap, NoDoubleAllocation) {
  AllocationMap m({64});
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    auto a = m.allocate_on(0);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(seen.insert(a->block).second) << "block " << a->block;
  }
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

TEST(AllocationMap, NonMultipleOf64Capacity) {
  AllocationMap m({70});
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 70; ++i) {
    auto a = m.allocate_on(0);
    ASSERT_TRUE(a.ok()) << "i=" << i;
    EXPECT_LT(a->block, 70u);
    EXPECT_TRUE(seen.insert(a->block).second);
  }
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

TEST(AllocationMap, FreeMakesBlockReusable) {
  AllocationMap m({1});
  auto a = m.allocate_on(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
  ASSERT_TRUE(m.free_block(*a).ok());
  EXPECT_FALSE(m.is_allocated(*a));
  EXPECT_TRUE(m.allocate_on(0).ok());
}

TEST(AllocationMap, DoubleFreeRejected) {
  AllocationMap m({4});
  auto a = m.allocate_on(0);
  ASSERT_TRUE(m.free_block(*a).ok());
  EXPECT_EQ(m.free_block(*a).code(), Errc::invalid_argument);
}

TEST(AllocationMap, FreeBogusAddressRejected) {
  AllocationMap m({4});
  EXPECT_EQ(m.free_block({5, 0}).code(), Errc::invalid_argument);
  EXPECT_EQ(m.free_block({0, 99}).code(), Errc::invalid_argument);
}

TEST(AllocationMap, StripedRoundRobin) {
  AllocationMap m({10, 10, 10, 10});
  auto blocks = m.allocate_striped(1, 8);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 8u);
  // Starting at NSD 1, wrapping: 1,2,3,0,1,2,3,0.
  const std::uint32_t expect[] = {1, 2, 3, 0, 1, 2, 3, 0};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((*blocks)[i].nsd, expect[i]) << "i=" << i;
  }
}

TEST(AllocationMap, StripedFallsBackWhenPreferredFull) {
  AllocationMap m({2, 100});
  // Fill NSD 0.
  ASSERT_TRUE(m.allocate_on(0).ok());
  ASSERT_TRUE(m.allocate_on(0).ok());
  auto blocks = m.allocate_striped(0, 4);
  ASSERT_TRUE(blocks.ok());
  for (const auto& b : *blocks) EXPECT_EQ(b.nsd, 1u);
}

TEST(AllocationMap, StripedAllOrNothing) {
  AllocationMap m({2, 2});
  auto blocks = m.allocate_striped(0, 5);  // only 4 available
  ASSERT_FALSE(blocks.ok());
  EXPECT_EQ(blocks.code(), Errc::no_space);
  EXPECT_EQ(m.total_free(), 4u);  // nothing leaked
}

TEST(AllocationMap, RotorKeepsAllocationsMostlySequential) {
  AllocationMap m({1000});
  auto a = m.allocate_on(0);
  auto b = m.allocate_on(0);
  auto c = m.allocate_on(0);
  EXPECT_EQ(b->block, a->block + 1);
  EXPECT_EQ(c->block, b->block + 1);
}

class AllocStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocStress, AllocFreeChurnPreservesInvariants) {
  const std::uint64_t cap = GetParam();
  AllocationMap m({cap, cap});
  std::vector<BlockAddr> live;
  Rng rng(cap);
  for (int round = 0; round < 2000; ++round) {
    if (live.empty() || (rng.chance(0.6) && m.total_free() > 0)) {
      auto a = m.allocate_on(static_cast<std::uint32_t>(rng.below(2)));
      if (a.ok()) live.push_back(*a);
    } else {
      const std::size_t i = rng.below(live.size());
      ASSERT_TRUE(m.free_block(live[i]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(m.total_free(), 2 * cap - live.size());
  }
  for (const auto& b : live) EXPECT_TRUE(m.is_allocated(b));
}

INSTANTIATE_TEST_SUITE_P(Capacities, AllocStress,
                         ::testing::Values(17, 64, 65, 130, 1024));

// --- two-level bitmap (summary word per 64 bitmap words) --------------

TEST(AllocationMap, SummarySkipsLongFullRuns) {
  // > 64 bitmap words so the summary level spans multiple groups.
  constexpr std::uint64_t kCap = 70 * 64;  // 4480 blocks, 70 words
  AllocationMap m(std::vector<std::uint64_t>{kCap});
  for (std::uint64_t i = 0; i < kCap; ++i) {
    ASSERT_TRUE(m.allocate_on(0).ok());
  }
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
  // Free one block in the middle of the full map: the next allocation
  // must find it from a wrapped rotor, across the full-word run.
  ASSERT_TRUE(m.free_block({0, 2048}).ok());
  auto a = m.allocate_on(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->block, 2048u);
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

TEST(AllocationMap, TailBitsNeverAllocatedEvenAfterFreeChurn) {
  // Capacity straddling a word boundary by one bit: the 63 tail bits of
  // the final word must stay unusable through full drain/refill cycles.
  constexpr std::uint64_t kCap = 65;
  AllocationMap m(std::vector<std::uint64_t>{kCap});
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < kCap; ++i) {
      auto a = m.allocate_on(0);
      ASSERT_TRUE(a.ok()) << "cycle " << cycle << " i " << i;
      EXPECT_LT(a->block, kCap);
      EXPECT_TRUE(seen.insert(a->block).second);
    }
    EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
    for (std::uint64_t b : seen) ASSERT_TRUE(m.free_block({0, b}).ok());
    EXPECT_EQ(m.free_blocks(0), kCap);
  }
}

TEST(AllocationMap, SummaryReopensFreedWordAtRotor) {
  AllocationMap m(std::vector<std::uint64_t>{256});
  // Fill everything, then free a scattered set; allocations must hand
  // back exactly the freed set (in rotor order) and then run dry.
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(m.allocate_on(0).ok());
  const std::uint64_t freed[] = {0, 63, 64, 127, 128, 200, 255};
  for (std::uint64_t b : freed) ASSERT_TRUE(m.free_block({0, b}).ok());
  std::set<std::uint64_t> got;
  for (std::size_t i = 0; i < std::size(freed); ++i) {
    auto a = m.allocate_on(0);
    ASSERT_TRUE(a.ok());
    got.insert(a->block);
  }
  EXPECT_EQ(got, std::set<std::uint64_t>(std::begin(freed), std::end(freed)));
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

// --- lazily materialised bitmap chunks --------------------------------

/// Reference allocator: a plain bit vector scanned word by word from the
/// rotor, taking the lowest free bit of the first word with one — the
/// next-fit order AllocationMap promises.
struct NextFitOracle {
  explicit NextFitOracle(std::uint64_t cap) : used(cap, false) {}

  std::uint64_t take() {
    const std::uint64_t cap = used.size();
    const std::uint64_t words = (cap + 63) / 64;
    for (std::uint64_t k = 0; k <= words; ++k) {
      const std::uint64_t w = (rotor / 64 + k) % words;
      for (std::uint64_t b = w * 64; b < std::min(cap, w * 64 + 64); ++b) {
        if (used[b]) continue;
        used[b] = true;
        rotor = b + 1 < cap ? b + 1 : 0;
        return b;
      }
    }
    return cap;  // full
  }

  std::uint64_t in_use() const {
    return static_cast<std::uint64_t>(
        std::count(used.begin(), used.end(), true));
  }

  std::vector<bool> used;
  std::uint64_t rotor = 0;
};

TEST(AllocationMap, ChunkBoundariesMatchNextFitOracle) {
  // Four 4 KiB chunks (512 words each): the last holds only the two
  // final words, and the final word is partial.
  constexpr std::uint64_t kChunkBits = 512 * 64;
  constexpr std::uint64_t kCap = 3 * kChunkBits + 100;
  static_assert(kCap % 64 != 0);
  AllocationMap m(std::vector<std::uint64_t>{kCap});
  NextFitOracle oracle(kCap);
  auto allocate = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      auto a = m.allocate_on(0);
      ASSERT_TRUE(a.ok()) << "allocation " << i;
      ASSERT_EQ(a->block, oracle.take()) << "allocation " << i;
    }
  };
  auto release = [&](std::uint64_t b) {
    ASSERT_TRUE(m.free_block({0, b}).ok()) << "block " << b;
    oracle.used[b] = false;
  };

  // Rotor into the middle of word 511, the last word of chunk 0.
  allocate(511 * 64 + 32);
  // Chunks 1 and 2 were never written: every block there reads free.
  for (std::uint64_t b = kChunkBits; b < 3 * kChunkBits; b += 61) {
    ASSERT_FALSE(m.is_allocated({0, b})) << "block " << b;
  }
  EXPECT_FALSE(m.is_allocated({0, kCap - 1}));
  EXPECT_EQ(m.free_blocks(0), kCap - oracle.in_use());

  // Holes behind the rotor, in word 0 and in word 511 itself: next-fit
  // takes word 511's low holes first, then runs on into word 512.
  release(10);
  release(511 * 64 + 3);
  release(511 * 64 + 31);
  allocate(96);
  EXPECT_TRUE(m.is_allocated({0, 512 * 64 + 60}));

  // Run into the partial tail word (crossing chunk 2), open holes in it
  // and behind the rotor, and drain the map: the sequence takes the
  // tail word's hole below the rotor, wraps, and picks up the early
  // holes in rotor order.
  allocate(kCap - 20 - oracle.in_use());
  release(kCap - 30);
  release(1536 * 64 + 5);
  release(512 * 64 + 7);
  allocate(kCap - oracle.in_use());
  EXPECT_EQ(m.free_blocks(0), 0u);
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);

  // Free one block in every chunk and reallocate them.
  for (std::uint64_t b : {std::uint64_t{5}, kChunkBits + 5,
                          2 * kChunkBits + 5, 3 * kChunkBits + 5}) {
    release(b);
  }
  EXPECT_EQ(m.free_blocks(0), kCap - oracle.in_use());
  allocate(4);
  EXPECT_EQ(m.free_blocks(0), 0u);
  for (std::uint64_t b = 0; b < kCap; ++b) {
    ASSERT_TRUE(m.is_allocated({0, b})) << "block " << b;
  }
}

}  // namespace
}  // namespace mgfs::gpfs
