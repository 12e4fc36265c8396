// BlockMapCache: the client's chunked cache of file block maps.
//
// The unit tests pin the cases the data path relies on (unaligned
// allocate-ahead installs, holes past EOF, revoke drops, replica
// placements, chunks that grow as higher blocks are mapped). The
// property tests run random install / drop / mark sequences against a
// per-block std::map reference with the semantics of a plain map of
// optional placements, and check every lookup and coverage query after
// each step; the hole-heavy variant mostly installs holes and
// past-EOF tails, so chunks start small and grow.
#include "gpfs/block_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.hpp"

namespace mgfs::gpfs {
namespace {

constexpr InodeNum kIno = 7;

BlockAddr addr_of(std::uint64_t bi) {
  return BlockAddr{static_cast<std::uint32_t>(bi % 5), 1000 + bi};
}

/// Single-copy reply for blocks [first, first + n): mapped below `eof`,
/// holes at and past it (what op_block_map returns past end of file).
BlockMapChunk single_chunk(std::uint64_t first, std::size_t n,
                           std::uint64_t eof = ~0ULL) {
  BlockMapChunk c;
  c.first_block = first;
  for (std::uint64_t bi = first; bi < first + n; ++bi) {
    if (bi < eof) {
      c.addrs.emplace_back(addr_of(bi));
    } else {
      c.addrs.emplace_back(std::nullopt);
    }
  }
  return c;
}

BlockPlacement two_copies(std::uint64_t bi) {
  BlockPlacement p = BlockPlacement::single(addr_of(bi));
  p.add(BlockAddr{9, 5000 + bi});
  return p;
}

/// Replicated reply: every block has two copies.
BlockMapChunk replicated_chunk(std::uint64_t first, std::size_t n) {
  BlockMapChunk c;
  c.first_block = first;
  for (std::uint64_t bi = first; bi < first + n; ++bi) {
    c.addrs.emplace_back(addr_of(bi));
    c.placements.push_back(two_copies(bi));
  }
  return c;
}

TEST(BlockMapCache, UnalignedInstallSpansChunkBoundary) {
  BlockMapCache m;
  // An allocate-ahead reply for blocks 60..67 straddles chunks 0 and 1.
  m.install(kIno, single_chunk(60, 8));
  for (std::uint64_t bi = 60; bi < 68; ++bi) {
    const MapLookup e = m.lookup(kIno, bi);
    ASSERT_TRUE(e.mapped()) << bi;
    EXPECT_EQ(e.placement, BlockPlacement::single(addr_of(bi))) << bi;
  }
  EXPECT_FALSE(m.lookup(kIno, 59).known());
  EXPECT_FALSE(m.lookup(kIno, 68).known());
  EXPECT_TRUE(m.covers(kIno, 60, 8));
  EXPECT_TRUE(m.covers(kIno, 63, 2));
  EXPECT_FALSE(m.covers(kIno, 59, 2));
  EXPECT_FALSE(m.covers(kIno, 67, 2));
  EXPECT_FALSE(m.covers(kIno, 0, 64));
  EXPECT_TRUE(m.covers(kIno, 0, 0));
  EXPECT_FALSE(m.covers(kIno + 1, 60, 1));
}

TEST(BlockMapCache, EntriesPastEofReadAsHoles) {
  BlockMapCache m;
  m.install(kIno, single_chunk(0, 64, /*eof=*/3));
  EXPECT_TRUE(m.lookup(kIno, 2).mapped());
  for (std::uint64_t bi : {3, 10, 63}) {
    const MapLookup e = m.lookup(kIno, bi);
    EXPECT_TRUE(e.known()) << bi;
    EXPECT_FALSE(e.mapped()) << bi;
    EXPECT_EQ(e.state, MapLookup::State::hole) << bi;
  }
  EXPECT_TRUE(m.covers(kIno, 0, 64));
  EXPECT_EQ(m.lookup(kIno, 64).state, MapLookup::State::unknown);
  // A later allocation fills a former hole.
  m.install(kIno, single_chunk(3, 1));
  EXPECT_TRUE(m.lookup(kIno, 3).mapped());
  EXPECT_EQ(m.lookup(kIno, 4).state, MapLookup::State::hole);
}

TEST(BlockMapCache, DropRemovesExactlyTheRange) {
  BlockMapCache m;
  m.install(kIno, single_chunk(0, 192));
  m.install(kIno + 1, single_chunk(0, 64));
  m.drop(kIno, 50, 130);
  EXPECT_TRUE(m.lookup(kIno, 49).mapped());
  EXPECT_FALSE(m.lookup(kIno, 50).known());
  EXPECT_FALSE(m.lookup(kIno, 64).known());
  EXPECT_FALSE(m.lookup(kIno, 129).known());
  EXPECT_TRUE(m.lookup(kIno, 130).mapped());
  EXPECT_TRUE(m.covers(kIno, 0, 50));
  EXPECT_FALSE(m.covers(kIno, 0, 51));
  EXPECT_TRUE(m.covers(kIno, 130, 62));

  m.drop(kIno, 150, ~0ULL);  // to end of file
  EXPECT_TRUE(m.lookup(kIno, 149).mapped());
  EXPECT_FALSE(m.lookup(kIno, 150).known());
  EXPECT_FALSE(m.lookup(kIno, 191).known());
  EXPECT_TRUE(m.lookup(kIno, 0).mapped());

  m.drop(kIno, 0, ~0ULL);  // whole file
  EXPECT_FALSE(m.lookup(kIno, 0).known());
  EXPECT_FALSE(m.lookup(kIno, 140).known());
  EXPECT_TRUE(m.covers(kIno + 1, 0, 64));  // other inodes untouched
}

TEST(BlockMapCache, SingleCopyReinstallReplacesReplicatedPlacement) {
  BlockMapCache m;
  m.install(kIno, replicated_chunk(0, 8));
  EXPECT_EQ(m.lookup(kIno, 5).placement, two_copies(5));
  m.install(kIno, single_chunk(4, 2));
  EXPECT_EQ(m.lookup(kIno, 5).placement,
            BlockPlacement::single(addr_of(5)));
  EXPECT_EQ(m.lookup(kIno, 4).placement.copies, 1);
  EXPECT_EQ(m.lookup(kIno, 6).placement, two_copies(6));
}

TEST(BlockMapCache, DivergentMarkSurvivesLookup) {
  BlockMapCache m;
  m.install(kIno, replicated_chunk(0, 4));
  m.mark_divergent(kIno, 2, 1);
  const MapLookup e = m.lookup(kIno, 2);
  ASSERT_TRUE(e.mapped());
  EXPECT_EQ(e.placement.copies, 2);
  EXPECT_TRUE(e.placement.is_divergent(1));
  EXPECT_FALSE(e.placement.is_divergent(0));
  EXPECT_EQ(e.placement.clean_copies(), 1);
  EXPECT_FALSE(m.lookup(kIno, 1).placement.is_divergent(1));
  // Unknown and hole blocks have nothing to mark.
  m.mark_divergent(kIno, 100, 0);
  EXPECT_FALSE(m.lookup(kIno, 100).known());
}

TEST(BlockMapCache, OneBlockReplyMapsSlotZeroOnly) {
  BlockMapCache m;
  // op_block_map always answers 64 entries; a 1-block file maps one.
  m.install(kIno, single_chunk(0, 64, /*eof=*/1));
  EXPECT_EQ(m.lookup(kIno, 0).placement, BlockPlacement::single(addr_of(0)));
  for (std::uint64_t bi = 1; bi < 64; ++bi) {
    EXPECT_EQ(m.lookup(kIno, bi).state, MapLookup::State::hole) << bi;
  }
  EXPECT_TRUE(m.covers(kIno, 0, 64));
  EXPECT_FALSE(m.covers(kIno, 0, 65));
}

TEST(BlockMapCache, MappingAHigherSlotGrowsTheChunk) {
  BlockMapCache m;
  m.install(kIno, single_chunk(0, 64, /*eof=*/1));
  m.install(kIno, single_chunk(63, 1));
  EXPECT_EQ(m.lookup(kIno, 0).placement, BlockPlacement::single(addr_of(0)));
  EXPECT_EQ(m.lookup(kIno, 63).placement,
            BlockPlacement::single(addr_of(63)));
  for (std::uint64_t bi = 1; bi < 63; ++bi) {
    EXPECT_EQ(m.lookup(kIno, bi).state, MapLookup::State::hole) << bi;
  }
  // A reply whose only address is below the chunk's size leaves the
  // rest of the chunk alone.
  m.install(kIno, single_chunk(10, 1));
  EXPECT_TRUE(m.lookup(kIno, 10).mapped());
  EXPECT_EQ(m.lookup(kIno, 63).placement,
            BlockPlacement::single(addr_of(63)));
}

TEST(BlockMapCache, DropThenReinstallHigherSlot) {
  BlockMapCache m;
  m.install(kIno, single_chunk(0, 64, /*eof=*/2));
  m.drop(kIno, 0, ~0ULL);
  EXPECT_FALSE(m.lookup(kIno, 0).known());
  m.install(kIno, single_chunk(40, 24, /*eof=*/41));
  EXPECT_FALSE(m.lookup(kIno, 0).known());
  EXPECT_EQ(m.lookup(kIno, 40).placement,
            BlockPlacement::single(addr_of(40)));
  EXPECT_EQ(m.lookup(kIno, 41).state, MapLookup::State::hole);
  // Dropping part of the chunk keeps the rest, and a reinstall below
  // the kept slot does not disturb it.
  m.install(kIno, single_chunk(0, 2));
  m.drop(kIno, 0, 1);
  EXPECT_FALSE(m.lookup(kIno, 0).known());
  EXPECT_TRUE(m.lookup(kIno, 1).mapped());
  m.install(kIno, single_chunk(0, 1));
  EXPECT_EQ(m.lookup(kIno, 0).placement, BlockPlacement::single(addr_of(0)));
  EXPECT_EQ(m.lookup(kIno, 40).placement,
            BlockPlacement::single(addr_of(40)));
}

TEST(BlockMapCache, MarkDivergentOnHoleIsNoOp) {
  BlockMapCache m;
  m.install(kIno, single_chunk(0, 64, /*eof=*/1));
  m.mark_divergent(kIno, 1, 0);
  m.mark_divergent(kIno, 63, 0);
  EXPECT_EQ(m.lookup(kIno, 1).state, MapLookup::State::hole);
  EXPECT_EQ(m.lookup(kIno, 63).state, MapLookup::State::hole);
  // A block mapped afterwards starts clean.
  m.install(kIno, single_chunk(63, 1));
  EXPECT_EQ(m.lookup(kIno, 63).placement,
            BlockPlacement::single(addr_of(63)));
  EXPECT_EQ(m.lookup(kIno, 0).placement, BlockPlacement::single(addr_of(0)));
}

TEST(BlockMapCache, ClearForgetsEverything) {
  BlockMapCache m;
  m.install(kIno, single_chunk(0, 64, 10));
  m.install(kIno + 1, replicated_chunk(0, 4));
  m.clear();
  EXPECT_FALSE(m.lookup(kIno, 0).known());
  EXPECT_FALSE(m.lookup(kIno, 20).known());
  EXPECT_FALSE(m.lookup(kIno + 1, 0).known());
  EXPECT_FALSE(m.covers(kIno, 0, 1));
}

// Reference: one optional placement per cached block, as a plain map.
using Reference =
    std::map<InodeNum, std::map<std::uint64_t, std::optional<BlockPlacement>>>;

/// Random steps against the reference. With `hole_heavy`, most
/// installed entries are holes and many replies end in a run of
/// past-EOF holes, so chunks are installed sparse and grow later.
void check_against_reference(std::uint64_t seed, bool hole_heavy) {
  Rng rng(seed);
  BlockMapCache m;
  Reference ref;
  constexpr std::uint64_t kSpan = 300;  // blocks exercised per inode
  for (int step = 0; step < 400; ++step) {
    const InodeNum ino = 1 + rng.below(2);
    auto& r = ref[ino];
    const std::uint64_t op = rng.below(100);
    if (op < 55) {
      BlockMapChunk c;
      c.first_block = rng.below(kSpan);
      const std::uint64_t n = 1 + rng.below(std::min<std::uint64_t>(
                                      130, kSpan - c.first_block));
      const bool rep = rng.chance(0.4);
      const std::uint64_t eof =
          hole_heavy ? c.first_block + rng.below(n + 1) : ~0ULL;
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t bi = c.first_block + i;
        if (bi >= eof || rng.chance(hole_heavy ? 0.8 : 0.2)) {
          c.addrs.emplace_back(std::nullopt);
          if (rep) c.placements.push_back(BlockPlacement{});
          r[bi] = std::nullopt;
          continue;
        }
        const BlockAddr a{static_cast<std::uint32_t>(rng.below(8)),
                          rng.below(1u << 20)};
        c.addrs.emplace_back(a);
        BlockPlacement p = BlockPlacement::single(a);
        if (rep) {
          const std::uint64_t extra = rng.below(kMaxReplicas);
          for (std::uint64_t k = 0; k < extra; ++k) {
            p.add(BlockAddr{static_cast<std::uint32_t>(8 + k), rng.below(99)});
          }
          if (rng.chance(0.2)) {
            p.divergent = static_cast<std::uint8_t>(1u << rng.below(p.copies));
          }
          c.placements.push_back(p);
        }
        r[bi] = p;
      }
      m.install(ino, c);
    } else if (op < 75) {
      const std::uint64_t lo = rng.below(kSpan);
      const std::uint64_t hi =
          rng.chance(0.3) ? ~0ULL : lo + rng.below(kSpan - lo + 1);
      m.drop(ino, lo, hi);
      std::erase_if(r, [&](const auto& e) {
        return e.first >= lo && e.first < hi;
      });
    } else if (op < 98) {
      const std::uint64_t bi = rng.below(kSpan);
      const auto copy = static_cast<std::uint8_t>(rng.below(kMaxReplicas));
      m.mark_divergent(ino, bi, copy);
      if (auto it = r.find(bi); it != r.end() && it->second.has_value()) {
        it->second->divergent |= static_cast<std::uint8_t>(1u << copy);
      }
    } else {
      m.clear();
      ref.clear();
    }

    for (InodeNum i = 1; i <= 2; ++i) {
      const auto& ri = ref[i];
      for (std::uint64_t bi = 0; bi < kSpan + 70; ++bi) {
        const MapLookup e = m.lookup(i, bi);
        auto it = ri.find(bi);
        if (it == ri.end()) {
          ASSERT_FALSE(e.known()) << "step " << step << " ino " << i
                                  << " block " << bi;
        } else if (!it->second.has_value()) {
          ASSERT_EQ(e.state, MapLookup::State::hole)
              << "step " << step << " ino " << i << " block " << bi;
        } else {
          ASSERT_TRUE(e.mapped()) << "step " << step << " block " << bi;
          ASSERT_EQ(e.placement, *it->second)
              << "step " << step << " ino " << i << " block " << bi;
        }
      }
      for (int q = 0; q < 8; ++q) {
        const std::uint64_t first = rng.below(kSpan);
        const std::uint64_t count = rng.below(140);
        bool want = true;
        for (std::uint64_t bi = first; bi < first + count && want; ++bi) {
          want = ri.count(bi) > 0;
        }
        ASSERT_EQ(m.covers(i, first, count), want)
            << "step " << step << " ino " << i << " [" << first << ", +"
            << count << ")";
      }
    }
  }
}

class BlockMapCacheProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BlockMapCacheProperty, AgreesWithPerBlockReference) {
  check_against_reference(GetParam(), /*hole_heavy=*/false);
}

TEST_P(BlockMapCacheProperty, HoleHeavyAgreesWithPerBlockReference) {
  check_against_reference(GetParam(), /*hole_heavy=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockMapCacheProperty,
                         ::testing::Values(1u, 2u, 3u, 701u, 9001u));

}  // namespace
}  // namespace mgfs::gpfs
