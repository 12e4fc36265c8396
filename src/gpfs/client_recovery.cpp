// Client recovery: disk-lease lapse and rejoin, crash reset, the
// manager's revoke, and manager failover (per-shard manager views, the
// takeover rebuild's token assertion, epoch-checked grants).
#include "gpfs/client.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace mgfs::gpfs {

// --------------------------------------------------------------------------
// disk lease lapse, rejoin and crash reset
// --------------------------------------------------------------------------

void Client::on_lease_lapsed() {
  if (lapse_handling_) return;
  lapse_handling_ = true;
  ++lease_lapses_;
  ++incarnation_;
  MGFS_WARN("client", "client " << id_
                                << ": disk lease lapsed; discarding cached "
                                   "state and rejoining");
  // A lapsed lease means every cached byte — tokens, maps, dirty
  // write-behind pages — belongs to a dead incarnation. Drop it all.
  discard_cached_state(/*reset_breakers=*/false);
  attempt_rejoin(0);
}

void Client::attempt_rejoin(int attempt) {
  if (!mounted() || !rejoin_) {
    lapse_handling_ = false;
    return;
  }
  const std::uint64_t inc = incarnation_;
  rejoin_([this, inc, attempt](Result<std::uint64_t> r) {
    if (incarnation_ != inc) return;  // a crash_reset superseded us
    if (!mounted()) {
      lapse_handling_ = false;
      return;
    }
    if (r.ok()) {
      lapse_handling_ = false;
      lease_renew_inflight_ = false;
      lease_epoch_ = *r;
      lease_renewed_at_ = simulator().now();
      // Readmission came from whoever holds the manager roles now:
      // adopt every shard's current view.
      for (std::uint32_t s = 0; s < fs_->shard_count(); ++s) {
        adopt_manager_view(s, fs_->manager_node(s), fs_->manager_epoch(s));
      }
      MGFS_INFO("client", "client " << id_ << ": rejoined under lease epoch "
                                    << lease_epoch_);
      pump_flush();
      wake_flush_waiters();
      return;
    }
    // Manager unreachable: keep trying under backoff — the client is
    // useless until it rejoins.
    simulator().after(cfg_.retry.backoff(std::min(attempt, 8), rng_),
                      [this, inc, attempt] {
                        if (incarnation_ != inc) return;
                        attempt_rejoin(attempt + 1);
                      });
  });
}

void Client::discard_cached_state(bool reset_breakers) {
  pool_.invalidate_all();
  dirty_fifo_.clear();
  dirty_addr_.clear();
  anchor_fails_.clear();
  held_.clear();
  block_map_.clear();
  alloc_ahead_hi_.clear();
  fill_inflight_ = 0;
  if (reset_breakers) nsd_health_.clear();
  // Writers stalled on the dirty cap and fsync/revoke waiters can
  // proceed: the dirty pages they were waiting out no longer exist.
  wake_flush_waiters();
}

void Client::crash_reset() {
  ++incarnation_;  // orphan every in-flight completion of the old life
  lapse_handling_ = false;
  lease_renew_inflight_ = false;
  lease_epoch_ = 0;  // cluster glue re-registers and sets the new epoch
  if (fs_ != nullptr) {
    // Reboot re-reads the cluster configuration: whatever nodes hold
    // the shard manager roles now are the ones this incarnation talks
    // to.
    seed_manager_views();
  }
  // open_ survives deliberately: callers hold Fh handles and in-flight
  // write() continuations hold OpenFile pointers; the handles stay
  // valid while every cached byte below them is discarded.
  discard_cached_state(/*reset_breakers=*/true);
}

// --------------------------------------------------------------------------
// coherence
// --------------------------------------------------------------------------

bool Client::handle_revoke(InodeNum ino, TokenRange range,
                           std::uint64_t mgr_epoch, sim::Callback done) {
  const std::uint32_t shard = fs_->shard_of(ino);
  if (mgr_epoch < mgr_[shard].epoch) {
    // A deposed manager trying to strip a token the successor already
    // re-granted. Refuse without flushing anything — `done` never runs.
    ++stale_mgr_rejects_;
    MGFS_WARN("client", "client " << id_ << ": revoke under stale manager "
                                  << "epoch " << mgr_epoch << " (have "
                                  << mgr_[shard].epoch << "); refused");
    return false;
  }
  // A newer-epoch revoke doubles as first contact with the successor:
  // adopt its view before flushing, or the dirty pages this revoke
  // forces out would carry the old manager epoch and be fenced.
  adopt_manager_view(shard, fs_->manager_node(shard), mgr_epoch);
  // Flushing the whole inode is always sufficient for `range`.
  flush_inode(ino, [this, ino, range, done = std::move(done)] {
    const Bytes bs = block_size();
    const std::uint64_t lo_blk = range.lo / bs;
    const std::uint64_t hi_blk =
        range.hi == kWholeFile ? ~0ULL : ceil_div(range.hi, bs);
    pool_.invalidate(ino, lo_blk, hi_blk);
    // Drop the cached block map for the revoked range too: the writer
    // this revoke hands the bytes to may mark replicas divergent, and a
    // later read here must re-fetch the placement to see that.
    block_map_.drop(ino, lo_blk, hi_blk);
    token_trim(ino, range);
    done();
  });
  return true;
}

// --------------------------------------------------------------------------
// manager failover
// --------------------------------------------------------------------------

void Client::seed_manager_views() {
  mgr_.clear();
  mgr_.reserve(fs_->shard_count());
  for (std::uint32_t s = 0; s < fs_->shard_count(); ++s) {
    mgr_.push_back(MgrView{fs_->manager_node(s), fs_->manager_epoch(s)});
  }
}

void Client::adopt_manager_view(std::uint32_t shard, net::NodeId mgr_node,
                                std::uint64_t mgr_epoch) {
  MgrView& v = mgr_[shard];
  if (mgr_epoch > v.epoch) {
    v.epoch = mgr_epoch;
    ++mgr_takeovers_;
  }
  v.node = mgr_node;
}

net::NodeId Client::refresh_manager_view(std::uint32_t shard,
                                         net::NodeId failed_target) {
  const net::NodeId fresh = fs_->manager_node(shard);
  if (!(fresh == failed_target)) ++mgr_reroutes_;
  adopt_manager_view(shard, fresh, fs_->manager_epoch(shard));
  return fresh;
}

Result<ManagerAssertReply> Client::assert_tokens(net::NodeId mgr_node,
                                                 std::uint64_t mgr_epoch,
                                                 std::uint32_t shard) {
  if (!mounted()) return err(Errc::unavailable, "not mounted");
  adopt_manager_view(shard, mgr_node, mgr_epoch);
  ManagerAssertReply reply;
  reply.lease_epoch = lease_epoch_;
  // Dirty-journal summary: what this client still owes the data path
  // (the redrive the overlap window must absorb once its tokens are
  // back). dirty_addr_ keys every unflushed page to its pre-allocated
  // address, so the inode set falls out of the keys — and the per-inode
  // covering span of those pages bounds what we must keep locked.
  // Only `shard`'s inodes are asserted: the other shards' managers did
  // not change, so their grants stay exactly as held.
  const Bytes bs = block_size();
  std::unordered_map<InodeNum, TokenRange> dirty_span;
  reply.dirty_bytes = pool_.dirty_bytes();
  for (const auto& [key, addr] : dirty_addr_) {
    if (fs_->shard_of(key.ino) != shard) continue;
    const TokenRange pg{key.block * bs, (key.block + 1) * bs};
    auto [it, fresh] = dirty_span.try_emplace(key.ino, pg);
    if (!fresh) {
      it->second.lo = std::min(it->second.lo, pg.lo);
      it->second.hi = std::max(it->second.hi, pg.hi);
    }
  }
  for (const auto& [ino, span] : dirty_span) reply.dirty_inodes.push_back(ino);
  std::sort(reply.dirty_inodes.begin(), reply.dirty_inodes.end());
  // Assert only what this client still owes: rw tokens clamped to the
  // covering span of their unflushed pages. The speculative width a
  // token gained from desired-window batching died with the old
  // manager — reinstalling it would make the successor's rebuilt table
  // block every other client's first post-takeover acquire behind a
  // revoke round against a grant nobody is using. Clean holdings are
  // simply re-acquired on demand, same as after a plain wipe.
  std::unordered_map<InodeNum, std::vector<HeldToken>> kept;
  for (const auto& [ino, held] : held_) {
    if (fs_->shard_of(ino) != shard) continue;
    const auto ds = dirty_span.find(ino);
    if (ds == dirty_span.end()) continue;
    for (const HeldToken& h : held) {
      if (h.mode != LockMode::rw || !h.range.overlaps(ds->second)) continue;
      const TokenRange clip{std::max(h.range.lo, ds->second.lo),
                            std::min(h.range.hi, ds->second.hi)};
      kept[ino].push_back({h.mode, clip, /*widened=*/false});
      reply.tokens.push_back(TokenAssertion{ino, h.mode, clip});
    }
  }
  // Cached pages whose token was dropped lose their revoke channel —
  // nobody will tell us when another client rewrites them. Evict the
  // clean ones; dirty pages all live inside kept spans by construction
  // (every dirty page sits under some rw token and inside its inode's
  // dirty span, so its clip retains it).
  for (const auto& [ino, held] : held_) {
    if (fs_->shard_of(ino) != shard) continue;
    const auto kit = kept.find(ino);
    for (const HeldToken& h : held) {
      std::vector<TokenRange> remain{h.range};
      if (kit != kept.end()) {
        for (const HeldToken& k : kit->second) {
          std::vector<TokenRange> next;
          for (const TokenRange& r : remain) {
            subtract_range(r, k.range,
                           [&](TokenRange piece) { next.push_back(piece); });
          }
          remain = std::move(next);
        }
      }
      for (const TokenRange& r : remain) {
        // Interior blocks only: a block straddling a kept-range edge is
        // still partly under token, and a partially-dirtied page must
        // not be dropped with unflushed bytes aboard.
        const std::uint64_t lo_blk = ceil_div(r.lo, bs);
        const std::uint64_t hi_blk = r.hi == kWholeFile ? ~0ULL : r.hi / bs;
        if (lo_blk < hi_blk) pool_.invalidate(ino, lo_blk, hi_blk);
      }
    }
  }
  // Replace only this shard's holdings with the clipped set; other
  // shards' entries survive untouched.
  std::erase_if(held_,
                [&](const auto& e) { return fs_->shard_of(e.first) == shard; });
  for (auto& [ino, v] : kept) held_[ino] = std::move(v);
  // held_ iterates in hash order; the successor's rebuilt tables must
  // not depend on it.
  std::sort(reply.tokens.begin(), reply.tokens.end(),
            [](const TokenAssertion& a, const TokenAssertion& b) {
              if (a.ino != b.ino) return a.ino < b.ino;
              return a.range.lo < b.range.lo;
            });
  return reply;
}

bool Client::deliver_manager_grant(InodeNum ino, TokenRange range,
                                   LockMode mode, std::uint64_t mgr_epoch) {
  if (mgr_epoch < mgr_[fs_->shard_of(ino)].epoch) {
    ++stale_mgr_rejects_;
    return false;
  }
  token_record(ino, range, mode, /*widened=*/true);
  return true;
}

}  // namespace mgfs::gpfs
