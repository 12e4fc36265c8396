// Client block-map cache: which NSD block backs each file block.
//
// A client learns block addresses from the manager in chunks (one
// op_block_map or op_allocate reply) and caches them so the data path
// reaches NSD servers without a metadata round trip per block. The
// cache mirrors how the manager itself splits block data: a primary
// address per block, and a sparse side table holding the full
// BlockPlacement only for blocks with more than one copy or a copy
// marked divergent. A chunk stores addresses only up to its highest
// mapped block, so a client's memory follows what it has mapped: about
// 70 B per 64-block chunk touched, 16 B per block up to that chunk's
// highest mapped one (a 1-block file's chunk ~100 B, a full one
// ~1.1 KiB), and about 90 B per replicated block.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gpfs/types.hpp"

namespace mgfs::gpfs {

/// One block-map reply: the addresses of blocks
/// [first_block, first_block + addrs.size()). An empty entry is a hole
/// (unallocated, or past end of file).
struct BlockMapChunk {
  std::uint64_t first_block = 0;
  std::vector<std::optional<BlockAddr>> addrs;
  /// Replica-aware block map: parallel to `addrs` for replicated files
  /// (placements[i].addr[0] == *addrs[i]); empty for unreplicated files
  /// so the single-copy wire format and payload stay unchanged.
  std::vector<BlockPlacement> placements;
};

/// What the cache knows about one block.
struct MapLookup {
  enum class State : std::uint8_t { unknown, hole, mapped };
  State state = State::unknown;
  BlockPlacement placement;  // meaningful only when mapped

  bool known() const { return state != State::unknown; }
  bool mapped() const { return state == State::mapped; }
};

class BlockMapCache {
 public:
  /// Blocks per cache chunk (the unit of storage and of coverage tests).
  static constexpr std::uint64_t kChunkBlocks = 64;

  MapLookup lookup(InodeNum ino, std::uint64_t block) const;
  /// Record a manager reply. The chunk may start anywhere and span
  /// cache-chunk boundaries (allocate-ahead replies do); every entry in
  /// it replaces what was cached for that block.
  void install(InodeNum ino, const BlockMapChunk& chunk);
  /// Mark copy `copy` of a mapped block divergent (no-op otherwise).
  void mark_divergent(InodeNum ino, std::uint64_t block, std::uint8_t copy);
  /// Forget blocks [lo, hi); hi = ~0 reaches the end of the file.
  void drop(InodeNum ino, std::uint64_t lo, std::uint64_t hi);
  /// True when every block in [first, first + count) is known (mapped
  /// or a hole), i.e. no manager fetch is needed for the range.
  bool covers(InodeNum ino, std::uint64_t first, std::uint64_t count) const;
  void clear() { files_.clear(); }

 private:
  struct Chunk {
    std::uint64_t known = 0;   // bit i: block i of the chunk is cached
    std::uint64_t mapped = 0;  // bit i: ... and has an address
    // primary[i] is block i's address, read only while bit i of
    // `mapped` is set. Sized to the highest slot ever mapped, so a
    // chunk of a 1-block file holds one address, not 64.
    std::vector<BlockAddr> primary;
  };
  struct File {
    std::unordered_map<std::uint64_t, Chunk> chunks;  // by block / 64
    // Full placements of mapped blocks that are not a clean single copy.
    std::unordered_map<std::uint64_t, BlockPlacement> replicas;
  };

  std::unordered_map<InodeNum, File> files_;
};

}  // namespace mgfs::gpfs
