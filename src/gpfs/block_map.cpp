#include "gpfs/block_map.hpp"

#include <algorithm>
#include <iterator>

namespace mgfs::gpfs {
namespace {

constexpr std::uint64_t kChunk = BlockMapCache::kChunkBlocks;

/// Bits [lo, hi) of a chunk mask, 0 <= lo < hi <= 64.
std::uint64_t span_mask(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t width = hi - lo;
  return (width == kChunk ? ~0ULL : ((1ULL << width) - 1)) << lo;
}

}  // namespace

MapLookup BlockMapCache::lookup(InodeNum ino, std::uint64_t block) const {
  MapLookup out;
  auto fit = files_.find(ino);
  if (fit == files_.end()) return out;
  const File& f = fit->second;
  auto cit = f.chunks.find(block / kChunk);
  if (cit == f.chunks.end()) return out;
  const Chunk& c = cit->second;
  const std::uint64_t bit = 1ULL << (block % kChunk);
  if ((c.known & bit) == 0) return out;
  if ((c.mapped & bit) == 0) {
    out.state = MapLookup::State::hole;
    return out;
  }
  out.state = MapLookup::State::mapped;
  if (!f.replicas.empty()) {
    if (auto rit = f.replicas.find(block); rit != f.replicas.end()) {
      out.placement = rit->second;
      return out;
    }
  }
  out.placement = BlockPlacement::single(c.primary[block % kChunk]);
  return out;
}

void BlockMapCache::install(InodeNum ino, const BlockMapChunk& chunk) {
  const std::size_t n = chunk.addrs.size();
  if (n == 0) return;
  File& f = files_[ino];
  const bool rep = chunk.placements.size() == n;
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t first = chunk.first_block + i;
    Chunk& c = f.chunks[first / kChunk];
    const std::size_t end =
        std::min<std::size_t>(n, i + (kChunk - first % kChunk));
    // Grow the chunk once for this run, to its last entry that has an
    // address; holes and blocks past EOF need none.
    std::size_t last = end;
    while (last > i && !chunk.addrs[last - 1].has_value()) --last;
    if (last > i) {
      const std::size_t need = (chunk.first_block + last - 1) % kChunk + 1;
      if (need > c.primary.size()) {
        c.primary.reserve(need);  // exact: resize alone may round up
        c.primary.resize(need);
      }
    }
    for (; i < end; ++i) {
      const std::uint64_t bi = chunk.first_block + i;
      const std::uint64_t slot = bi % kChunk;
      const std::uint64_t bit = 1ULL << slot;
      c.known |= bit;
      if (!chunk.addrs[i].has_value()) {
        c.mapped &= ~bit;
        if (!f.replicas.empty()) f.replicas.erase(bi);
        continue;
      }
      c.mapped |= bit;
      if (rep) {
        const BlockPlacement& p = chunk.placements[i];
        c.primary[slot] = p.addr[0];
        if (p != BlockPlacement::single(p.addr[0])) {
          f.replicas[bi] = p;
          continue;
        }
      } else {
        c.primary[slot] = *chunk.addrs[i];
      }
      if (!f.replicas.empty()) f.replicas.erase(bi);
    }
  }
}

void BlockMapCache::mark_divergent(InodeNum ino, std::uint64_t block,
                                   std::uint8_t copy) {
  auto fit = files_.find(ino);
  if (fit == files_.end()) return;
  File& f = fit->second;
  auto cit = f.chunks.find(block / kChunk);
  if (cit == f.chunks.end()) return;
  const Chunk& c = cit->second;
  if ((c.mapped & (1ULL << (block % kChunk))) == 0) return;
  auto [rit, fresh] = f.replicas.try_emplace(block);
  if (fresh) rit->second = BlockPlacement::single(c.primary[block % kChunk]);
  rit->second.divergent |= static_cast<std::uint8_t>(1u << copy);
}

void BlockMapCache::drop(InodeNum ino, std::uint64_t lo, std::uint64_t hi) {
  if (lo >= hi) return;
  auto fit = files_.find(ino);
  if (fit == files_.end()) return;
  File& f = fit->second;
  const std::uint64_t c_lo = lo / kChunk;
  const std::uint64_t c_hi = (hi - 1) / kChunk;  // inclusive
  for (auto cit = f.chunks.begin(); cit != f.chunks.end();) {
    const std::uint64_t ci = cit->first;
    if (ci < c_lo || ci > c_hi) {
      ++cit;
      continue;
    }
    const std::uint64_t base = ci * kChunk;
    const std::uint64_t mask = span_mask(ci == c_lo ? lo - base : 0,
                                         ci == c_hi ? hi - base : kChunk);
    Chunk& c = cit->second;
    c.known &= ~mask;
    c.mapped &= ~mask;
    cit = c.known == 0 ? f.chunks.erase(cit) : std::next(cit);
  }
  std::erase_if(f.replicas, [&](const auto& e) {
    return e.first >= lo && e.first < hi;
  });
  if (f.chunks.empty()) files_.erase(fit);
}

bool BlockMapCache::covers(InodeNum ino, std::uint64_t first,
                           std::uint64_t count) const {
  if (count == 0) return true;
  auto fit = files_.find(ino);
  if (fit == files_.end()) return false;
  const File& f = fit->second;
  const std::uint64_t last = first + count - 1;
  for (std::uint64_t ci = first / kChunk; ci <= last / kChunk; ++ci) {
    auto cit = f.chunks.find(ci);
    if (cit == f.chunks.end()) return false;
    const std::uint64_t base = ci * kChunk;
    const std::uint64_t mask =
        span_mask(std::max(first, base) - base,
                  std::min(last, base + kChunk - 1) - base + 1);
    if ((cit->second.known & mask) != mask) return false;
  }
  return true;
}

}  // namespace mgfs::gpfs
