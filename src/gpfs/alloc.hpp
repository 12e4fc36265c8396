// Block allocation maps: one two-level bitmap per NSD plus a striping
// helper.
//
// GPFS stripes successive file blocks round-robin across all NSDs of the
// file system; the allocator keeps a rotor per NSD so sequential
// allocations stay mostly sequential on each disk (which the Disk model
// rewards). Each bitmap carries a summary level — one bit per 64-bit
// bitmap word, set iff that word still has a free block — so finding the
// next free block from the rotor is a couple of word probes instead of a
// scan across an arbitrarily long run of full words (on a nearly-full
// NSD the old linear next-fit walked the whole map per block).
//
// The bitmap itself is chunked: 4 KiB chunks come into being on their
// first write and an absent chunk reads as all-free, so a petabyte of
// installed NSDs costs memory in proportion to the blocks ever used,
// not to capacity. The summary level (1/4096 of the bitmap) stays eager.
// Invariants (tested): a block is never handed out twice, free returns
// it exactly once, and counters always match the bitmaps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "gpfs/types.hpp"

namespace mgfs::gpfs {

/// A bitmap of a fixed number of 64-bit words, stored as 4 KiB chunks
/// that are allocated on first write. An absent chunk reads as zeros.
class ChunkedBitmap {
 public:
  static constexpr std::uint64_t kChunkWords = 512;  // 4 KiB per chunk

  explicit ChunkedBitmap(std::uint64_t words)
      : words_(words), chunks_((words + kChunkWords - 1) / kChunkWords) {}

  std::uint64_t words() const { return words_; }

  std::uint64_t word(std::uint64_t w) const {
    const std::uint64_t* c = chunks_[w / kChunkWords].get();
    return c != nullptr ? c[w % kChunkWords] : 0;
  }

  /// Writable word `w`, materialising its chunk if absent.
  std::uint64_t& word_ref(std::uint64_t w) {
    std::unique_ptr<std::uint64_t[]>& c = chunks_[w / kChunkWords];
    if (c == nullptr) c = std::make_unique<std::uint64_t[]>(kChunkWords);
    return c[w % kChunkWords];
  }

  /// Set bit `b`; returns whether it was already set.
  bool test_and_set(std::uint64_t b) {
    std::uint64_t& w = word_ref(b / 64);
    const std::uint64_t mask = 1ULL << (b % 64);
    const bool was = (w & mask) != 0;
    w |= mask;
    return was;
  }

  /// Calls `f(index, value)` for every word of every materialised chunk.
  template <class F>
  void for_each_materialised_word(F&& f) const {
    for (std::uint64_t ci = 0; ci < chunks_.size(); ++ci) {
      const std::uint64_t* c = chunks_[ci].get();
      if (c == nullptr) continue;
      const std::uint64_t first = ci * kChunkWords;
      const std::uint64_t n = std::min(kChunkWords, words_ - first);
      for (std::uint64_t i = 0; i < n; ++i) f(first + i, c[i]);
    }
  }

 private:
  std::uint64_t words_;
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
};

class AllocationMap {
 public:
  /// `blocks_per_nsd[i]` = capacity of NSD i in file-system blocks.
  explicit AllocationMap(std::vector<std::uint64_t> blocks_per_nsd);

  std::size_t nsd_count() const { return nsds_.size(); }
  std::uint64_t capacity_blocks(std::uint32_t nsd) const;
  std::uint64_t free_blocks(std::uint32_t nsd) const;
  std::uint64_t total_free() const;
  std::uint64_t total_capacity() const;

  /// Allocate one block on a specific NSD (first free from the rotor).
  Result<BlockAddr> allocate_on(std::uint32_t nsd);

  /// Allocate `n` blocks striped round-robin starting at `first_nsd`,
  /// falling back to any NSD with space when the preferred one is full.
  /// All-or-nothing: on no_space nothing is leaked.
  Result<std::vector<BlockAddr>> allocate_striped(std::uint32_t first_nsd,
                                                  std::size_t n);

  Status free_block(BlockAddr addr);
  bool is_allocated(BlockAddr addr) const;

  /// Calls `f(word_index, allocated_bits)` for the materialised words of
  /// NSD `nsd`'s bitmap, where bit i of word w stands for block w*64+i.
  /// Tail bits past capacity are masked off; blocks of words not visited
  /// are all free.
  template <class F>
  void for_each_allocated_word(std::uint32_t nsd, F&& f) const {
    MGFS_ASSERT(nsd < nsds_.size(), "bad nsd index");
    const PerNsd& p = nsds_[nsd];
    const std::uint64_t last = p.bitmap.words() - 1;
    const std::uint64_t tail =
        p.capacity % 64 == 0 ? ~0ULL : (1ULL << (p.capacity % 64)) - 1;
    p.bitmap.for_each_materialised_word(
        [&](std::uint64_t w, std::uint64_t bits) {
          f(w, w == last ? bits & tail : bits);
        });
  }

 private:
  struct PerNsd {
    explicit PerNsd(std::uint64_t cap);
    ChunkedBitmap bitmap;  // 1 bit per block, 1 = in use
    // Summary level: bit w of summary[w / 64] is set iff bitmap word w
    // has at least one free (and usable) bit. Bits past the capacity of
    // the final bitmap word are pre-marked used, so "free bit" always
    // means an allocatable block.
    std::vector<std::uint64_t> summary;
    std::uint64_t capacity = 0;
    std::uint64_t used = 0;
    std::uint64_t rotor = 0;  // next-fit scan start
  };

  Result<std::uint64_t> take_free_bit(PerNsd& p);

  std::vector<PerNsd> nsds_;
};

}  // namespace mgfs::gpfs
