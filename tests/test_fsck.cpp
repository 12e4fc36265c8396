// fsck finds what it is meant to find: each fault is planted directly in
// the namespace or the allocation map, and every FsckReport field is
// checked exactly — including a block referenced more times than a
// one-byte counter can hold.
#include <gtest/gtest.h>

#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

void expect_report(const FsckReport& got, const FsckReport& want) {
  EXPECT_EQ(got.referenced_blocks, want.referenced_blocks);
  EXPECT_EQ(got.allocated_blocks, want.allocated_blocks);
  EXPECT_EQ(got.orphaned_blocks, want.orphaned_blocks);
  EXPECT_EQ(got.duplicate_refs, want.duplicate_refs);
  EXPECT_EQ(got.dangling_refs, want.dangling_refs);
  EXPECT_EQ(got.uncommitted_records, want.uncommitted_records);
  EXPECT_EQ(got.replica_refs, want.replica_refs);
  EXPECT_EQ(got.divergent_replicas, want.divergent_replicas);
  EXPECT_EQ(got.placement_mismatches, want.placement_mismatches);
  EXPECT_EQ(got.clean(), want.clean());
}

InodeNum make_file(MiniCluster& mc, const std::string& path) {
  auto ino = mc.fs->ns().create(path, kAlice, Mode{064}, 0);
  EXPECT_TRUE(ino.ok());
  return ino.ok() ? *ino : 0;
}

TEST(Fsck, EmptyFileSystemIsClean) {
  MiniCluster mc;
  expect_report(mc.fs->fsck(), FsckReport{});
}

TEST(Fsck, FindsOrphanedBlock) {
  MiniCluster mc;
  const InodeNum ino = make_file(mc, "/f");
  auto used = mc.fs->alloc().allocate_on(1);
  ASSERT_TRUE(used.ok());
  ASSERT_TRUE(mc.fs->ns().set_block(ino, 0, *used).ok());
  FsckReport want;
  want.referenced_blocks = 1;
  want.allocated_blocks = 1;
  expect_report(mc.fs->fsck(), want);

  ASSERT_TRUE(mc.fs->alloc().allocate_on(3).ok());  // referenced nowhere
  want.allocated_blocks = 2;
  want.orphaned_blocks = 1;
  ASSERT_FALSE(want.clean());
  expect_report(mc.fs->fsck(), want);
}

TEST(Fsck, FindsDanglingReference) {
  MiniCluster mc;
  const InodeNum ino = make_file(mc, "/f");
  ASSERT_TRUE(mc.fs->ns().set_block(ino, 0, BlockAddr{1, 500}).ok());
  FsckReport want;
  want.referenced_blocks = 1;
  want.dangling_refs = 1;
  expect_report(mc.fs->fsck(), want);
}

TEST(Fsck, OutOfRangeReferencesAreDangling) {
  MiniCluster mc;
  const InodeNum ino = make_file(mc, "/f");
  const std::uint64_t cap = mc.fs->alloc().capacity_blocks(0);
  const auto nsds = static_cast<std::uint32_t>(mc.fs->alloc().nsd_count());
  ASSERT_TRUE(mc.fs->ns().set_block(ino, 0, BlockAddr{0, cap}).ok());
  ASSERT_TRUE(mc.fs->ns().set_block(ino, 1, BlockAddr{nsds, 0}).ok());
  FsckReport want;
  want.referenced_blocks = 2;
  want.dangling_refs = 2;
  expect_report(mc.fs->fsck(), want);
}

TEST(Fsck, FindsDuplicateAcrossInodes) {
  MiniCluster mc;
  const InodeNum a = make_file(mc, "/a");
  const InodeNum b = make_file(mc, "/b");
  auto shared = mc.fs->alloc().allocate_on(2);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(mc.fs->ns().set_block(a, 0, *shared).ok());
  ASSERT_TRUE(mc.fs->ns().set_block(b, 4, *shared).ok());
  FsckReport want;
  want.referenced_blocks = 2;
  want.allocated_blocks = 1;
  want.duplicate_refs = 1;
  expect_report(mc.fs->fsck(), want);
}

TEST(Fsck, DuplicateCountDoesNotWrap) {
  // 256 and 300 references to one block: a one-byte reference counter
  // wraps to zero at 256 (reporting an orphan and one duplicate short).
  for (const std::uint64_t refs : {256u, 300u}) {
    MiniCluster mc;
    const InodeNum ino = make_file(mc, "/hot");
    auto hot = mc.fs->alloc().allocate_on(0);
    ASSERT_TRUE(hot.ok());
    for (std::uint64_t bi = 0; bi < refs; ++bi) {
      ASSERT_TRUE(mc.fs->ns().set_block(ino, bi, *hot).ok());
    }
    FsckReport want;
    want.referenced_blocks = refs;
    want.allocated_blocks = 1;
    want.duplicate_refs = refs - 1;
    expect_report(mc.fs->fsck(), want);
  }
}

TEST(Fsck, ReplicaCopiesAreReferencesToo) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  // Copy 1 of every block is allocated and referenced only through the
  // placement table: not an orphan.
  FsckReport want;
  want.referenced_blocks = 4;
  want.allocated_blocks = 8;
  want.replica_refs = 4;
  expect_report(mc.fs->fsck(), want);

  // Free one copy behind the file system's back: it now dangles.
  auto st = mc.stat(c, "/rep");
  ASSERT_TRUE(st.ok());
  const BlockPlacement* p = mc.fs->replica_placement(st->ino, 2);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->copies, 2);
  ASSERT_TRUE(mc.fs->alloc().free_block(p->addr[1]).ok());
  want.allocated_blocks = 7;
  want.dangling_refs = 1;
  ASSERT_FALSE(want.clean());
  expect_report(mc.fs->fsck(), want);
}

}  // namespace
}  // namespace mgfs::gpfs
