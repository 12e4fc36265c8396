// Client data path: the NSD I/O runs (circuit breakers, replica
// choice, retry and failover), read fills with readahead and replica
// redirects, and write-behind with write-through replica propagation.
#include "gpfs/client.hpp"

#include <algorithm>

#include "common/fan_in.hpp"
#include "common/log.hpp"

namespace mgfs::gpfs {
namespace {

/// Speculative (readahead) fill bytes in flight; demand fills are not
/// budgeted.
constexpr Bytes kMaxInflightFill = 48 * MiB;

/// Most blocks per coalesced NSD request.
constexpr std::size_t kCoalesceBlocks = 8;

/// Concurrent write-behind flush requests.
constexpr std::size_t kFlushParallel = 32;

/// Consecutive failures that open an NSD server's circuit breaker, and
/// the half-open probe spacing while it is open.
constexpr int kBreakerThreshold = 3;
constexpr sim::Time kBreakerProbe = 1.0;

/// Write-behind requeue delay after a failed flush.
constexpr sim::Time kFlushRetryDelay = 0.05;

/// Wire cost of a bare request/ack frame on the NSD data protocol.
constexpr Bytes kDataHeader = 64;

/// Per-extent descriptor cost in a vectored NSD request header.
constexpr Bytes kExtentDesc = 16;

/// How deep into the dirty FIFO the flusher looks for same-NSD blocks
/// to coalesce with the one it just popped.
constexpr std::size_t kFlushScan = 256;

}  // namespace

// --------------------------------------------------------------------------
// NSD data path
// --------------------------------------------------------------------------

std::uint8_t Client::pick_copy(const BlockPlacement& p,
                               std::uint8_t tried) const {
  if (p.copies == 1) {  // nothing to rank
    return (tried & 1u) != 0 || p.is_divergent(0)
               ? static_cast<std::uint8_t>(kMaxReplicas)
               : std::uint8_t{0};
  }
  std::uint8_t best = static_cast<std::uint8_t>(kMaxReplicas);
  int best_penalty = 2;
  double best_rtt = 0.0;
  for (std::uint8_t c = 0; c < p.copies; ++c) {
    if ((tried & (1u << c)) != 0 || p.is_divergent(c)) continue;
    const Nsd& nsd = fs_->nsd(p.addr[c].nsd);
    // A copy whose serving nodes are all circuit-broken is a last
    // resort; among equally-live copies the lowest propagation RTT to
    // the primary server wins — the nearest-replica read.
    const bool live = admit_server(nsd.primary) ||
                      (nsd.has_backup && admit_server(nsd.backup));
    const int penalty = live ? 0 : 1;
    const auto rtt = rpc_.pool().network().rtt(node_, nsd.primary);
    const double d = rtt.has_value() ? *rtt : 1e9;
    if (penalty < best_penalty ||
        (penalty == best_penalty && d < best_rtt)) {
      best = c;
      best_penalty = penalty;
      best_rtt = d;
    }
  }
  return best;
}

bool Client::admit_server(net::NodeId n) const {
  auto it = nsd_health_.find(n.v);
  if (it == nsd_health_.end() || !it->second.open) return true;
  return simulator().now() >= it->second.next_probe;
}

void Client::consume_probe(net::NodeId n) {
  auto it = nsd_health_.find(n.v);
  if (it == nsd_health_.end() || !it->second.open) return;
  // Half-open trial: this request is the probe. Push the next one out
  // so concurrent I/O doesn't stampede a server we believe is dead.
  // Consumed here — at issue time — rather than when the target list
  // was built: a backup-position slot that is never exercised must not
  // burn the probe window.
  it->second.next_probe = simulator().now() + kBreakerProbe;
  ++breaker_probes_;
}

void Client::note_server_ok(net::NodeId n) {
  auto it = nsd_health_.find(n.v);
  if (it == nsd_health_.end()) return;
  it->second.fails = 0;
  it->second.open = false;
}

void Client::note_server_fail(net::NodeId n) {
  ServerHealth& h = nsd_health_[n.v];
  ++h.fails;
  if (h.open) {
    // Failed probe: stay open, space out the next trial.
    h.next_probe = simulator().now() + kBreakerProbe;
    return;
  }
  if (h.fails >= kBreakerThreshold) {
    h.open = true;
    h.next_probe = simulator().now() + kBreakerProbe;
    ++breaker_opens_;
    MGFS_WARN("client", "circuit breaker open for NSD server node "
                            << n.v << " after " << h.fails
                            << " consecutive failures");
  }
}

bool Client::breaker_open(net::NodeId node) const {
  auto it = nsd_health_.find(node.v);
  return it != nsd_health_.end() && it->second.open;
}

/// One round = try every admitted serving node in preference order
/// (primary, then backup). Rounds are re-run under the retry policy's
/// backoff until it is exhausted; a multi-block run whose servers all
/// failed is split back into single-block retries.
void Client::nsd_io_run(NsdRun run, bool write, int attempt, RunDone done) {
  if (!mounted()) {
    done(run, err(Errc::unavailable, "unmounted"));
    return;
  }
  const Nsd& nsd = fs_->nsd(run.nsd);
  std::vector<net::NodeId> targets;
  if (admit_server(nsd.primary)) {
    targets.push_back(nsd.primary);
  } else {
    ++breaker_skips_;
  }
  if (nsd.has_backup && admit_server(nsd.backup)) {
    targets.push_back(nsd.backup);
  }
  if (targets.empty()) {
    // Every serving node is circuit-broken with no probe due: fail the
    // round without touching the wire and let the backoff retry pick it
    // up once a probe window opens. Nothing was attempted, so the run
    // stays whole.
    retry_run(std::move(run), write, attempt, /*split=*/false,
              err(Errc::unavailable, "all NSD servers circuit-broken"),
              std::move(done));
    return;
  }
  nsd_run_attempt(std::move(run), write, std::move(targets), 0, attempt,
                  std::move(done));
}

void Client::nsd_run_attempt(NsdRun run, bool write,
                             std::vector<net::NodeId> targets, std::size_t ti,
                             int attempt, RunDone done) {
  const Nsd& nsd = fs_->nsd(run.nsd);
  const net::NodeId target = targets[ti];
  const Bytes bs = block_size();
  const Bytes total = run.items.size() * bs;
  // One wire request for the whole run: the extent descriptors ride in
  // the header, the data rides in whichever direction the I/O goes.
  const Bytes req = kDataHeader + kExtentDesc * run.extents.size() +
                    (write ? total : 0);
  std::vector<IoExtent> extents;
  extents.reserve(run.extents.size());
  for (const NsdExtent& e : run.extents) {
    extents.push_back(IoExtent{e.block * bs, e.count * bs});
  }

  // Two-epoch fence, per token domain: the manager epoch travels per
  // shard, so a run coalesced across inodes carries one (representative
  // inode, believed epoch) pair per distinct shard it touches. In the
  // single-shard default this is exactly one consult per write.
  std::vector<std::pair<InodeNum, std::uint64_t>> gates;
  if (write) {
    std::vector<std::uint32_t> gate_shards;
    for (const BlockFetch& f : run.items) {
      const std::uint32_t s = fs_->shard_of(f.key.ino);
      if (std::find(gate_shards.begin(), gate_shards.end(), s) !=
          gate_shards.end()) {
        continue;
      }
      gate_shards.push_back(s);
      gates.emplace_back(f.key.ino, mgr_[s].epoch);
    }
  }

  auto after_transport = [this, run = std::move(run), write,
                          targets = std::move(targets), ti, attempt, target,
                          total,
                          done = std::move(done)](Result<int> r) mutable {
    if (r.ok()) {
      note_server_ok(target);
      // cipherList=encrypt: the client pays its half of the per-byte
      // cost too (decrypt on read / encrypt accounted on send path).
      // The client CPU is serial, so concurrent runs queue on it.
      if (cipher_ > 0) {
        cpu_.acquire(cipher_ * static_cast<double>(total),
                     [run = std::move(run), done = std::move(done)] {
                       done(run, Status{});
                     });
      } else {
        done(run, Status{});
      }
      return;
    }
    if (r.code() == Errc::timed_out) ++rpc_timeouts_;
    if (!retryable(r.code())) {
      // Media/namespace errors are final: failing over or retrying
      // would hide real data loss (e.g. a dead RAID set). A fenced
      // write (stale lease epoch) is equally final — the data belongs
      // to a dead incarnation.
      if (write && r.code() == Errc::stale) ++fenced_writes_;
      done(run, r.error());
      return;
    }
    if (r.code() == Errc::gated) {
      // The write gate paused this I/O for a takeover rebuild. The
      // server is healthy — charging it the failure would open its
      // breaker and fail I/O over to the backup for nothing. Requeue on
      // the short recovery cadence; the attempt is not consumed (the
      // rebuild always finishes, so this cannot loop forever).
      ++recovery_probes_;
      std::vector<NsdRun> runs;
      runs.push_back(std::move(run));
      reissue_runs(kRecoveryProbeInterval, std::move(runs), write, attempt,
                   std::move(done));
      return;
    }
    note_server_fail(target);
    if (ti + 1 < targets.size()) {
      ++failovers_;
      MGFS_WARN("client", "nsd " << run.nsd << " server node " << target.v
                                 << " " << errc_name(r.code())
                                 << ", failing over to backup");
      nsd_run_attempt(std::move(run), write, std::move(targets), ti + 1,
                      attempt, std::move(done));
      return;
    }
    retry_run(std::move(run), write, attempt, /*split=*/true, r.error(),
              std::move(done));
  };

  consume_probe(target);
  rpc_.call<int>(
      node_, target, req,
      [servers = servers_, target, dev = nsd.device,
       extents = std::move(extents), write, total, cipher = cipher_, me = id_,
       epoch = lease_epoch_,
       gates = std::move(gates)](Rpc::ReplyFn<int> reply) {
        NsdServer* srv = servers ? servers(target) : nullptr;
        if (srv == nullptr) {
          reply(kDataHeader,
                err(Errc::unavailable, "no NSD service on node"));
          return;
        }
        // Every data RPC carries the client's lease epoch and its
        // believed manager epoch(s); writes from a stale incarnation of
        // either never reach the device. Fence dominates retry: one
        // dead domain poisons the whole run.
        if (write) {
          auto decision = NsdServer::GateDecision::admit;
          for (const auto& [gate_ino, mepoch] : gates) {
            const auto d = srv->write_admitted(me, gate_ino, epoch, mepoch);
            if (d == NsdServer::GateDecision::fence) {
              decision = d;
              break;
            }
            if (d == NsdServer::GateDecision::retry) decision = d;
          }
          switch (decision) {
            case NsdServer::GateDecision::admit:
              break;
            case NsdServer::GateDecision::retry:
              // Manager takeover rebuilding state: pause-and-redrive.
              reply(kDataHeader,
                    err(Errc::gated, "manager takeover in progress"));
              return;
            case NsdServer::GateDecision::fence:
              reply(kDataHeader,
                    err(Errc::stale, "write fenced: stale epoch"));
              return;
          }
        }
        srv->handle_vectored(*dev, extents, write, cipher,
                             [reply, write, total](const Status& st) {
                               const Bytes payload =
                                   write ? kDataHeader : total;
                               if (st.ok()) {
                                 reply(payload, 0);
                               } else {
                                 reply(kDataHeader, Result<int>(st.error()));
                               }
                             });
      },
      std::move(after_transport), Rpc::CallOptions{cfg_.rpc_deadline});
}

void Client::retry_run(NsdRun run, bool write, int attempt, bool split,
                       Status st, RunDone done) {
  if (cfg_.retry.exhausted(attempt)) {
    done(run, st);
    return;
  }
  ++rpc_retries_;
  std::vector<NsdRun> runs;
  if (split && run.items.size() > 1) {
    // Every server failed a coalesced request: re-issue each block as
    // its own single-block run. Each sub-run reaches the shared RunDone
    // exactly once, so together they cover the original run's items
    // exactly once — no block is lost and none completes twice.
    ++coal_splits_;
    MGFS_WARN("client", "splitting failed coalesced request: nsd "
                            << run.nsd << ", " << run.items.size()
                            << " blocks retried singly");
    runs = build_nsd_runs(std::move(run.items), 1);
  } else {
    runs.push_back(std::move(run));
  }
  reissue_runs(cfg_.retry.backoff(attempt, rng_), std::move(runs), write,
               attempt + 1, std::move(done));
}

void Client::reissue_runs(sim::Time delay, std::vector<NsdRun> runs,
                          bool write, int attempt, RunDone done) {
  simulator().after(delay, [this, runs = std::move(runs), write, attempt,
                            done = std::move(done)]() mutable {
    for (NsdRun& r : runs) nsd_io_run(std::move(r), write, attempt, done);
  });
}

void Client::issue_fills(std::vector<BlockFetch> fetch) {
  if (fetch.empty()) return;
  const Bytes bs = block_size();
  auto runs = build_nsd_runs(std::move(fetch), kCoalesceBlocks);
  for (NsdRun& run : runs) {
    for (const BlockFetch& f : run.items) {
      if (f.speculative) fill_inflight_ += bs;
    }
    if (run.items.size() > 1) {
      coal_blocks_ += run.items.size();
      ++coal_requests_;
    }
    nsd_io_run(std::move(run), false, 0,
               [this](const NsdRun& r, const Status& st) {
                 if (!st.ok() && redirect_failed_fills(r, st)) return;
                 for (const BlockFetch& f : r.items) {
                   if (st.ok() && f.copy != 0) ++replica_reads_;
                   finish_fill(f.key, st, f.speculative);
                 }
               });
  }
}

bool Client::redirect_failed_fills(const NsdRun& r, const Status& st) {
  if (!mounted()) return false;
  const Bytes bs = pool_.page_size();
  std::vector<BlockFetch> redirect;
  std::vector<BlockFetch> dead;
  for (const BlockFetch& f : r.items) {
    const MapLookup e = block_map_.lookup(f.key.ino, f.key.block);
    if (e.mapped()) {
      const BlockPlacement& pl = e.placement;
      const std::uint8_t c = pick_copy(pl, f.tried);
      if (c < pl.copies) {
        redirect.push_back(
            BlockFetch{f.key, pl.addr[c], f.speculative, c,
                       static_cast<std::uint8_t>(f.tried | (1u << c))});
        continue;
      }
    }
    dead.push_back(f);
  }
  if (redirect.empty()) return false;
  ++replica_failovers_;
  MGFS_WARN("client", "client " << id_ << ": nsd " << r.nsd << " read "
                                << errc_name(st.code()) << "; redirecting "
                                << redirect.size()
                                << " block(s) to another replica");
  // issue_fills re-counts speculative bytes; give back this run's share
  // for the redirected items so the budget does not double-charge them.
  for (const BlockFetch& f : redirect) {
    if (f.speculative) {
      fill_inflight_ = fill_inflight_ >= bs ? fill_inflight_ - bs : 0;
    }
  }
  for (const BlockFetch& f : dead) finish_fill(f.key, st, f.speculative);
  issue_fills(std::move(redirect));
  return true;
}

void Client::finish_fill(const PageKey& key, const Status& st,
                         bool speculative) {
  const Bytes bs = pool_.page_size();  // == block size; safe when unmounted
  if (speculative) {
    fill_inflight_ = fill_inflight_ >= bs ? fill_inflight_ - bs : 0;
  }
  if (st.ok()) {
    bytes_read_remote_ += bs;
    // Install only if we still may cache this range (a revoke may have
    // raced with the fill).
    const TokenRange r{key.block * bs, (key.block + 1) * bs};
    if (token_covering(key.ino, r, LockMode::ro) != nullptr) {
      pool_.insert_clean(key);
    }
  }
  auto node = fill_waiters_.extract(key);
  if (node.empty()) return;
  for (auto& cb : node.mapped()) cb(st);
}

Client::BlockPlan Client::plan_block(InodeNum ino, std::uint64_t bi,
                                     bool speculative,
                                     std::vector<BlockFetch>& fetch) {
  const PageKey key{ino, bi};
  const bool cached = pool_.contains(key);
  if (!speculative) {
    pool_.note_lookup(cached);
    if (cached) pool_.touch(key);
  }
  if (cached) return BlockPlan::hit;
  if (fill_waiters_.count(key) > 0) return BlockPlan::join;
  const MapLookup e = block_map_.lookup(ino, bi);
  MGFS_ASSERT(speculative || e.known(), "block map not populated before fill");
  if (!e.mapped()) return BlockPlan::hole;
  if (speculative) {
    const Bytes bs = block_size();
    const TokenRange r{bi * bs, (bi + 1) * bs};
    if (token_covering(ino, r, LockMode::ro) == nullptr) return BlockPlan::hole;
  }
  const BlockPlacement& pl = e.placement;
  std::uint8_t c = pick_copy(pl, 0);
  if (c >= pl.copies) c = 0;
  fill_waiters_[key];
  fetch.push_back(BlockFetch{key, pl.addr[c], speculative, c,
                             static_cast<std::uint8_t>(1u << c)});
  if (speculative) ++ra_issued_;
  return BlockPlan::fetch;
}

void Client::plan_readahead(InodeNum ino, std::uint64_t lo, std::uint64_t hi,
                            std::vector<BlockFetch>& fetch) {
  const Bytes bs = block_size();
  for (std::uint64_t bi = lo; bi < hi; ++bi) {
    if (fill_inflight_ + fetch.size() * bs >= kMaxInflightFill) break;
    plan_block(ino, bi, /*speculative=*/true, fetch);
  }
}

void Client::prefetch_strided(InodeNum ino, std::uint64_t b0,
                              std::uint64_t count) {
  if (count == 0) return;
  const Bytes bs = block_size();
  const TokenRange want{b0 * bs, (b0 + count) * bs};
  ensure_token(
      ino, want, want, LockMode::ro, [this, ino, b0, count](Status st) {
        // Speculative: any failure (or an unmount that raced with the
        // token RPC) just means no prefetch.
        if (!st.ok() || !mounted()) return;
        ensure_map(ino, b0, count, [this, ino, b0, count](Status st) {
          if (!st.ok() || !mounted()) return;
          std::vector<BlockFetch> fetch;
          plan_readahead(ino, b0, b0 + count, fetch);
          issue_fills(std::move(fetch));
        });
      });
}

// --------------------------------------------------------------------------
// write-behind
// --------------------------------------------------------------------------

void Client::pump_flush() {
  while (flights_ < kFlushParallel && !dirty_fifo_.empty()) {
    const PageKey key = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    if (!pool_.is_dirty(key)) continue;  // cleaned or invalidated already
    auto ait = dirty_addr_.find(key);
    MGFS_ASSERT(ait != dirty_addr_.end(), "dirty page without address");
    const BlockPlacement pl = ait->second;
    const std::uint8_t ac = flush_anchor(pl);
    const BlockAddr addr = pl.addr[ac];

    // Coalesce: pull other dirty blocks bound for the same NSD out of
    // the FIFO head so the whole run goes out as one wire request.
    // Replicated blocks coalesce on their *anchor* copy; propagation to
    // the other copies fans out per block after the anchor run lands.
    std::vector<BlockFetch> items{BlockFetch{key, addr, false, ac, 0}};
    std::size_t scanned = 0;
    for (auto it = dirty_fifo_.begin();
         it != dirty_fifo_.end() && scanned < kFlushScan &&
         items.size() < kCoalesceBlocks;) {
      ++scanned;
      const PageKey k = *it;
      if (!pool_.is_dirty(k)) {
        it = dirty_fifo_.erase(it);
        continue;
      }
      auto a2 = dirty_addr_.find(k);
      MGFS_ASSERT(a2 != dirty_addr_.end(), "dirty page without address");
      const std::uint8_t ac2 = flush_anchor(a2->second);
      if (a2->second.addr[ac2].nsd == addr.nsd) {
        items.push_back(BlockFetch{k, a2->second.addr[ac2], false, ac2, 0});
        it = dirty_fifo_.erase(it);
      } else {
        ++it;
      }
    }
    auto runs = build_nsd_runs(std::move(items), kCoalesceBlocks);
    MGFS_ASSERT(runs.size() == 1, "flush coalescing spans one NSD");
    NsdRun run = std::move(runs.front());
    if (run.items.size() > 1) {
      coal_blocks_ += run.items.size();
      ++coal_requests_;
    }
    ++flights_;
    for (const BlockFetch& f : run.items) ++inflight_per_ino_[f.key.ino];
    // One flight covers the whole run; it frees up when every item has
    // reached a terminal sub-run (splits re-issue under the same done).
    auto remaining = std::make_shared<std::size_t>(run.items.size());
    nsd_io_run(std::move(run), true, 0,
               [this, remaining](const NsdRun& r, const Status& st) {
      bool lapsed = false;
      for (const BlockFetch& f : r.items) {
        const PageKey k = f.key;
        if (st.ok()) {
          bytes_written_remote_ += pool_.page_size();
          // Write-through: the page only goes clean (and the per-inode
          // inflight count only drops) once every clean replica copy has
          // the data too — fsync must cover propagation.
          finish_block_flush(k, f.copy);
        } else if (st.code() == Errc::stale) {
          // Fenced: our lease epoch is dead, this page can never land.
          // Uncommitted write-behind data of a lapsed incarnation is
          // lost by design — drop it and enter lease recovery.
          release_inflight(k.ino);
          pool_.invalidate(k.ino, k.block, k.block + 1);
          dirty_addr_.erase(k);
          anchor_fails_.erase(k);
          lapsed = true;
        } else {
          // Transient failure (e.g. both servers down): requeue after a
          // delay. An immediate requeue would spin at zero simulated
          // cost when the breaker fast-fails without touching the
          // network. If the anchor copy keeps failing and another clean
          // copy exists, divorce the anchor (mark it divergent) so the
          // requeued flush re-anchors on a reachable replica — this is
          // what lets writes keep landing through a site outage.
          release_inflight(k.ino);
          const int fails = ++anchor_fails_[k];
          auto ait2 = dirty_addr_.find(k);
          if (fails >= 3 && ait2 != dirty_addr_.end() &&
              ait2->second.clean_copies() > 1 &&
              !ait2->second.is_divergent(f.copy)) {
            anchor_fails_.erase(k);
            ++replica_failovers_;
            mark_divergent(k, f.copy, [] {});
          }
          simulator().after(kFlushRetryDelay, [this, k] {
            if (!mounted() || !pool_.is_dirty(k)) {
              dirty_addr_.erase(k);
              return;
            }
            dirty_fifo_.push_back(k);
            pump_flush();
          });
        }
      }
      if (lapsed) on_lease_lapsed();
      wake_flush_waiters();
      *remaining -= r.items.size();
      if (*remaining == 0) {
        --flights_;
        pump_flush();
      }
    });
  }
}

std::uint8_t Client::flush_anchor(const BlockPlacement& p) {
  // Prefer the primary copy; if it has been marked divergent (its NSD
  // was unreachable), anchor on the first clean replica instead.
  if (!p.is_divergent(0)) return 0;
  for (std::uint8_t c = 1; c < p.copies; ++c) {
    if (!p.is_divergent(c)) return c;
  }
  return 0;  // no clean copy recorded locally: fall back to primary
}

void Client::finish_block_flush(const PageKey& k, std::uint8_t anchor) {
  auto ait = dirty_addr_.find(k);
  if (ait == dirty_addr_.end()) {
    // Invalidated while the anchor write was in flight.
    release_inflight(k.ino);
    wake_flush_waiters();
    return;
  }
  const BlockPlacement pl = ait->second;
  std::vector<std::uint8_t> targets;
  for (std::uint8_t c = 0; c < pl.copies; ++c) {
    if (c != anchor && !pl.is_divergent(c)) targets.push_back(c);
  }
  if (targets.empty()) {
    complete_block_flush(k);
    return;
  }
  // Propagate to every other clean copy; the page goes clean only when
  // all copies have landed (or been marked divergent on failure).
  FanIn join(targets.size(), [this, k](Status) { complete_block_flush(k); });
  for (const std::uint8_t c : targets) {
    write_replica_copy(k, pl.addr[c], c, join);
  }
}

void Client::complete_block_flush(const PageKey& k) {
  pool_.mark_clean(k);
  dirty_addr_.erase(k);
  anchor_fails_.erase(k);
  release_inflight(k.ino);
  wake_flush_waiters();
}

void Client::write_replica_copy(const PageKey& k, BlockAddr addr,
                                std::uint8_t copy, sim::Callback done) {
  auto runs = build_nsd_runs({BlockFetch{k, addr, false, copy, 0}}, 1);
  MGFS_ASSERT(runs.size() == 1, "single replica write is one run");
  nsd_io_run(std::move(runs.front()), true, 0,
             [this, k, copy, done = std::move(done)](const NsdRun&,
                                                     const Status& st) {
    if (st.ok()) {
      bytes_written_remote_ += pool_.page_size();
      done();
      return;
    }
    // Replica copy unreachable or fenced: record the divergence with
    // the manager so readers stop trusting that copy, then let the
    // flush complete on the copies that did land. The reconciler
    // re-copies the data once the replica heals.
    MGFS_WARN("client", "node " << node_.v << " replica copy "
                                << static_cast<int>(copy) << " of ino "
                                << k.ino << " blk " << k.block
                                << " diverged: " << errc_name(st.code()));
    mark_divergent(k, copy, std::move(done));
  });
}

void Client::mark_divergent(const PageKey& k, std::uint8_t copy,
                            sim::Callback done) {
  if (!mounted()) {
    done();
    return;
  }
  meta_status(
      fs_->shard_of(k.ino), 64, 16,
      [k, copy](FileSystem& fs, ClientId me) {
        return fs.op_replica_divergence(me, k.ino, k.block, copy);
      },
      [this, k, copy, done = std::move(done)](Status st) {
        if (st.ok()) {
          block_map_.mark_divergent(k.ino, k.block, copy);
          if (auto it = dirty_addr_.find(k); it != dirty_addr_.end()) {
            it->second.divergent |= static_cast<std::uint8_t>(1u << copy);
          }
        }
        done();
      });
}

void Client::release_inflight(InodeNum ino) {
  auto it = inflight_per_ino_.find(ino);
  if (it != inflight_per_ino_.end() && --it->second == 0) {
    inflight_per_ino_.erase(it);
  }
}

bool Client::inode_idle(InodeNum ino) const {
  return inflight_per_ino_.count(ino) == 0 && pool_.dirty_pages(ino).empty();
}

void Client::wake_flush_waiters() {
  if (pool_.dirty_bytes() <= cfg_.max_dirty) {
    auto stalled = std::move(stalled_writers_);
    stalled_writers_.clear();
    for (auto& cb : stalled) cb();
  }
  // fsync()/revoke waiters whose inode fully flushed (or whose dirty
  // pages were discarded by lease recovery)?
  for (auto wit = flush_waiters_.begin(); wit != flush_waiters_.end();) {
    if (inode_idle(wit->first)) {
      auto cb = std::move(wit->second);
      wit = flush_waiters_.erase(wit);
      cb();
    } else {
      ++wit;
    }
  }
}

void Client::flush_inode(InodeNum ino, sim::Callback done) {
  if (inode_idle(ino)) {
    done();
    return;
  }
  flush_waiters_.emplace_back(ino, std::move(done));
  pump_flush();
}

}  // namespace mgfs::gpfs
