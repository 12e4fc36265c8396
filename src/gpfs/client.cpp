#include "gpfs/client.hpp"

#include <algorithm>
#include <set>

#include "common/fan_in.hpp"
#include "common/log.hpp"

namespace mgfs::gpfs {
namespace {

/// Pagepool size (whole file-system blocks are cached).
constexpr Bytes kPagepool = 256 * MiB;

/// Cap on the token/allocation batch of a sequential write streak
/// (blocks).
constexpr std::size_t kWriteBatchBlocks = 64;

/// Metadata request/response payload.
constexpr Bytes kMetaPayload = 256;

/// Argument check shared by the op entry points: when `bad`, fail
/// `done` with invalid_argument `why` and return true (the caller then
/// returns). open and the namespace ops check for a mount this way —
/// they route by path, which needs the file system — and the per-handle
/// ops for a known handle.
template <typename Done>
bool reject(bool bad, Done& done, const char* why) {
  if (bad) done(err(Errc::invalid_argument, why));
  return bad;
}

}  // namespace

Client::Client(Rpc& rpc, net::NodeId node, ClientId id, ClientConfig cfg,
               Rng rng)
    : rpc_(rpc),
      node_(node),
      id_(id),
      cfg_(cfg),
      rng_(rng),
      pool_(kPagepool, 1 * MiB),
      cpu_(rpc.pool().network().simulator(),
           "client" + std::to_string(id) + ".cpu") {}

// --------------------------------------------------------------------------
// metadata path: deadline + bounded retry toward the FS manager
// --------------------------------------------------------------------------

template <typename R>
void Client::meta_call(std::uint32_t shard, Bytes req_payload,
                       MetaOp<R> server, std::function<void(Result<R>)> done,
                       int attempt, double started_at, bool saw_recovery) {
  MGFS_ASSERT(mounted(), "metadata RPC without a mount");
  if (started_at < 0) started_at = simulator().now();
  saw_recovery = saw_recovery || fs_->recovering();
  const net::NodeId target = mgr_[shard].node;
  rpc_.call<R>(
      node_, target, req_payload,
      // The server continuation runs behind the shard manager's CPU:
      // with meta_cpu_per_op configured, this serialization point is
      // what sharding spreads across managers; at the default zero
      // cost, charge_meta is a synchronous passthrough. The file system
      // and client id are captured now, at send time: the client may be
      // unbound before the continuation runs.
      [fs = fs_, me = id_, shard, server](Rpc::ReplyFn<R> reply) {
        fs->charge_meta(shard, [fs, me, server,
                                reply = std::move(reply)]() mutable {
          server(*fs, me, std::move(reply));
        });
      },
      [this, shard, req_payload, server, attempt, target, started_at,
       saw_recovery, done = std::move(done)](Result<R> res) mutable {
        if (res.code() == Errc::timed_out) ++rpc_timeouts_;
        if (res.ok() || !retryable(res.code()) ||
            cfg_.retry.exhausted(attempt)) {
          if (saw_recovery) {
            recovery_op_hist_.add(simulator().now() - started_at);
          }
          done(std::move(res));
          return;
        }
        // The manager did not answer: report it so the cluster's
        // suspicion machinery can elect a successor if the node is dead.
        // Two freshness guards, or recovery eats its own tail: no report
        // while a rebuild is in flight (the successor is alive and
        // refusing on purpose — at probe cadence a handful of clients
        // would reach the strike quorum within milliseconds and depose
        // every new manager mid-rebuild), and no report when the role
        // has already moved off the node this RPC was aimed at (a
        // timeout against the deposed manager is stale evidence, not an
        // accusation against its successor).
        const bool was_recovering = mounted() && fs_->shard_recovering(shard);
        if (manager_watch_ && !was_recovering &&
            fs_->manager_node(shard) == target) {
          manager_watch_(shard);
        }
        ++rpc_retries_;
        // While a takeover rebuild is in flight the failure is the gate,
        // not the network: probe at a short fixed cadence instead of
        // walking the seeded-backoff schedule, or the client sleeps
        // through most of a short rebuild. Normal backoff resumes the
        // moment the gate clears. Re-checked after the watch — the watch
        // itself may have just started the takeover this retry must probe.
        const bool probing = mounted() && fs_->recovering();
        if (probing) ++recovery_probes_;
        const sim::Time delay = probing
                                    ? kRecoveryProbeInterval
                                    : cfg_.retry.backoff(attempt, rng_);
        simulator().after(
            delay,
            [this, shard, req_payload, server = std::move(server), attempt,
             target, started_at, saw_recovery,
             done = std::move(done)]() mutable {
              if (!mounted()) {
                done(err(Errc::unavailable, "unmounted during retry"));
                return;
              }
              // Config-manager lookup before the retry: a takeover may
              // have moved the role. A reroute (or a rebuild still in
              // flight) resets the attempt budget — the new target has
              // not failed us yet, and a redrive against a recovering
              // manager must outlast the rebuild, not a 4-attempt burst.
              const net::NodeId fresh = refresh_manager_view(shard, target);
              const int next_attempt =
                  (fs_->recovering() || !(fresh == target)) ? 0 : attempt + 1;
              meta_call<R>(shard, req_payload, std::move(server),
                           std::move(done), next_attempt, started_at,
                           saw_recovery);
            });
      },
      Rpc::CallOptions{cfg_.rpc_deadline});
}

void Client::meta_status(std::uint32_t shard, Bytes req_payload,
                         Bytes reply_payload,
                         std::function<Status(FileSystem&, ClientId)> op,
                         std::function<void(Status)> done) {
  meta_call<int>(
      shard, req_payload,
      [op = std::move(op), reply_payload](FileSystem& fs, ClientId me,
                                          Rpc::ReplyFn<int> reply) {
        const Status st = op(fs, me);
        reply(reply_payload,
              st.ok() ? Result<int>(0) : Result<int>(st.error()));
      },
      [done = std::move(done)](Result<int> r) {
        done(r.ok() ? Status{} : Status(r.error()));
      });
}

void Client::bind(FileSystem* fs, AccessMode access, double cipher_s_per_byte,
                  ServerLookup servers) {
  MGFS_ASSERT(fs != nullptr, "bind to null file system");
  MGFS_ASSERT(!mounted(), "client already bound");
  fs_ = fs;
  access_ = access;
  cipher_ = cipher_s_per_byte;
  servers_ = std::move(servers);
  seed_manager_views();
  // The pagepool caches whole file-system blocks.
  pool_ = PagePool(kPagepool, fs->block_size());
}

void Client::unbind() {
  fs_ = nullptr;
  access_ = AccessMode::none;
  open_.clear();
  held_.clear();
  block_map_.clear();
  dirty_fifo_.clear();
  dirty_addr_.clear();
  anchor_fails_.clear();
  alloc_ahead_hi_.clear();
}

Client::OpenFile* Client::file(Fh fh) {
  auto it = open_.find(fh);
  return it == open_.end() ? nullptr : &it->second;
}

Bytes Client::known_size(Fh fh) const {
  auto it = open_.find(fh);
  return it == open_.end() ? 0 : it->second.size;
}

// --------------------------------------------------------------------------
// token cache
// --------------------------------------------------------------------------

const Client::HeldToken* Client::token_covering(InodeNum ino, TokenRange r,
                                                LockMode mode) const {
  auto it = held_.find(ino);
  if (it == held_.end()) return nullptr;
  for (const HeldToken& h : it->second) {
    if (mode == LockMode::rw && h.mode != LockMode::rw) continue;
    if (h.range.contains(r)) return &h;
  }
  return nullptr;
}

void Client::token_record(InodeNum ino, TokenRange r, LockMode mode,
                          bool widened) {
  auto& v = held_[ino];
  // Merge with adjacent/overlapping same-mode holdings; absorb weaker
  // (ro) holdings only where the new rw range already covers them —
  // never extend an rw claim over bytes the manager granted as ro
  // (mirrors TokenManager::request exactly).
  std::vector<HeldToken> kept;
  kept.reserve(v.size());
  for (HeldToken& h : v) {
    const bool touching = h.range.overlaps(r) || h.range.lo == r.hi ||
                          r.lo == h.range.hi;
    const bool absorb = (h.mode == mode && touching) ||
                        (mode == LockMode::rw && h.mode == LockMode::ro &&
                         r.contains(h.range));
    if (absorb) {
      r.lo = std::min(r.lo, h.range.lo);
      r.hi = std::max(r.hi, h.range.hi);
      widened = widened || h.widened;
    } else {
      kept.push_back(h);
    }
  }
  kept.push_back(HeldToken{mode, r, widened});
  v = std::move(kept);
}

void Client::token_trim(InodeNum ino, TokenRange r) {
  auto it = held_.find(ino);
  if (it == held_.end()) return;
  std::vector<HeldToken> next;
  next.reserve(it->second.size());
  for (const HeldToken& h : it->second) {
    subtract_range(h.range, r, [&](TokenRange piece) {
      next.push_back({h.mode, piece, h.widened});
    });
  }
  if (next.empty()) {
    held_.erase(it);
  } else {
    it->second = std::move(next);
  }
}

void Client::ensure_token(InodeNum ino, TokenRange required,
                          TokenRange desired, LockMode mode,
                          std::function<void(Status)> done) {
  if (const HeldToken* h = token_covering(ino, required, mode)) {
    // A hit on a batched (widened) grant is a metadata RPC the
    // per-block protocol would have made.
    if (h->widened) ++meta_rpcs_saved_;
    done(Status{});
    return;
  }
  meta_call<TokenRange>(
      fs_->shard_of(ino), 64,
      [ino, required, desired, mode](FileSystem& fs, ClientId me,
                                     Rpc::ReplyFn<TokenRange> reply) {
        fs.op_token_acquire(me, ino, required, desired, mode,
                            [reply](Result<TokenRange> res) {
                              reply(64, std::move(res));
                            });
      },
      [this, ino, required, mode,
       done = std::move(done)](Result<TokenRange> res) {
        if (!res.ok()) {
          // stale = the manager expelled us; start lease recovery so
          // the caller's retry finds a fresh epoch.
          if (res.code() == Errc::stale) on_lease_lapsed();
          done(res.error());
          return;
        }
        const bool widened =
            res->lo < required.lo || res->hi > required.hi;
        token_record(ino, *res, mode, widened);
        done(Status{});
      });
}

// --------------------------------------------------------------------------
// block map cache
// --------------------------------------------------------------------------

void Client::ensure_map(InodeNum ino, std::uint64_t first,
                        std::uint64_t count,
                        std::function<void(Status)> done) {
  // Collect chunk-aligned fetches covering missing entries. One map RPC
  // fills exactly one cache chunk, so coverage is one mask test per
  // fetch unit.
  std::vector<std::uint64_t> chunk_starts;
  const std::uint64_t cs = BlockMapCache::kChunkBlocks;
  const std::uint64_t end = first + count;
  for (std::uint64_t start = first - first % cs; start < end; start += cs) {
    const std::uint64_t lo = std::max(first, start);
    if (!block_map_.covers(ino, lo, std::min(end, start + cs) - lo)) {
      chunk_starts.push_back(start);
    }
  }
  if (chunk_starts.empty()) {
    done(Status{});
    return;
  }
  FanIn join(chunk_starts.size(), std::move(done));
  const std::uint32_t shard = fs_->shard_of(ino);
  for (std::uint64_t start : chunk_starts) {
    meta_call<BlockMapChunk>(
        shard, kMetaPayload,
        [ino, start, cs](FileSystem& fs, ClientId,
                         Rpc::ReplyFn<BlockMapChunk> reply) {
          auto res = fs.op_block_map(ino, start, cs);
          const Bytes payload = 16 * cs;  // ~16 bytes per map entry
          reply(payload, std::move(res));
        },
        [this, ino, join](Result<BlockMapChunk> res) {
          if (!res.ok()) {
            join(res.error());
            return;
          }
          block_map_.install(ino, *res);
          join();
        });
  }
}

// --------------------------------------------------------------------------
// read / write / fsync / close
// --------------------------------------------------------------------------

void Client::open(const std::string& path, const Principal& who,
                  OpenFlags flags, std::function<void(Result<Fh>)> done) {
  if (reject(!mounted(), done, "not mounted")) return;
  if (flags.write && access_ != AccessMode::read_write) {
    done(err(Errc::read_only, "read-only mount"));
    return;
  }
  meta_call<OpenResult>(
      fs_->shard_of_path(path), kMetaPayload,
      [path, who, flags](FileSystem& fs, ClientId me,
                         Rpc::ReplyFn<OpenResult> reply) {
        reply(64, fs.op_open(path, who, flags, me));
      },
      [this, flags, done = std::move(done)](Result<OpenResult> res) {
        if (!res.ok()) {
          if (res.code() == Errc::stale) on_lease_lapsed();
          done(res.error());
          return;
        }
        const Fh fh = next_fh_++;
        OpenFile f;
        f.ino = res->ino;
        f.flags = flags;
        f.size = res->size;
        f.ra = ReadaheadRamp(static_cast<std::uint64_t>(kReadaheadMin),
                             static_cast<std::uint64_t>(cfg_.readahead_blocks));
        f.wb = ReadaheadRamp(8, kWriteBatchBlocks);
        open_[fh] = std::move(f);
        done(fh);
      });
}

void Client::read(Fh fh, Bytes offset, Bytes len,
                  std::function<void(Result<Bytes>)> done) {
  OpenFile* f = file(fh);
  if (reject(f == nullptr, done, "bad file handle")) return;
  if (!f->flags.read) {
    done(err(Errc::permission_denied, "not open for read"));
    return;
  }
  maybe_renew_lease();
  if (offset >= f->size || len == 0) {
    done(Bytes{0});
    return;
  }
  len = std::min(len, f->size - offset);
  const Bytes bs = block_size();
  const std::uint64_t b0 = offset / bs;
  const std::uint64_t b1 = (offset + len - 1) / bs;
  const InodeNum ino = f->ino;

  // Adaptive readahead: the ramp grows on confirmed sequential access,
  // collapses on a seek, and the fill budget bounds total prefetch
  // bytes in flight.
  const std::uint64_t ra = f->ra.on_access(b0, b1);
  const std::uint64_t last_file_block =
      f->size == 0 ? 0 : (f->size - 1) / bs;
  const std::uint64_t map_hi = std::min(b1 + ra, last_file_block);

  // Strided stream near its region boundary: the clamp withheld part of
  // the window, and the detector knows where the next run starts. Spend
  // the withheld depth there so the fill pipeline never drains across
  // the boundary (MPI-IO region transitions).
  const std::uint64_t pred = f->ra.predicted_next_run();
  if (pred != ReadaheadRamp::kUnknown && pred <= last_file_block &&
      f->ra.window() > ra) {
    prefetch_strided(ino, pred,
                     std::min(f->ra.window() - ra,
                              last_file_block - pred + 1));
  }

  // Batch the token and map acquisition over the whole window the ramp
  // says we will stream through, not just this call's bytes.
  const TokenRange required{offset, offset + len};
  const TokenRange desired =
      ra == 0 ? required : TokenRange{b0 * bs, (map_hi + 1) * bs};

  ensure_token(
      ino, required, desired, LockMode::ro,
      [this, ino, b0, b1, map_hi, len,
       done = std::move(done)](Status st) mutable {
        if (!st.ok()) {
          done(st.error());
          return;
        }
        ensure_map(
            ino, b0, map_hi - b0 + 1,
            [this, ino, b0, b1, map_hi, len,
             done = std::move(done)](Status st) mutable {
              if (!st.ok()) {
                done(st.error());
                return;
              }
              // Plan the demand blocks, then the readahead: it rides in
              // the same runs, so a demand fill and its same-NSD
              // successors become one wire request. Only readahead is
              // subject to the fill budget.
              std::vector<std::uint64_t> wait;
              std::vector<BlockFetch> fetch;
              for (std::uint64_t bi = b0; bi <= b1; ++bi) {
                const BlockPlan p = plan_block(ino, bi, false, fetch);
                if (p == BlockPlan::join || p == BlockPlan::fetch) {
                  wait.push_back(bi);
                }
              }
              plan_readahead(ino, b1 + 1, map_hi + 1, fetch);
              if (wait.empty()) {
                issue_fills(std::move(fetch));
                // Fully-cached reads must still complete asynchronously:
                // callers' issue loops are not re-entrant.
                simulator().defer(
                    [len, done = std::move(done)] { done(len); });
                return;
              }
              FanIn join(wait.size(),
                         [len, done = std::move(done)](Status st) {
                           if (st.ok()) {
                             done(len);
                           } else {
                             done(st.error());
                           }
                         });
              // Register waiters before issuing: a breaker fast-fail can
              // complete synchronously.
              for (std::uint64_t bi : wait) {
                fill_waiters_[PageKey{ino, bi}].push_back(join);
              }
              issue_fills(std::move(fetch));
            });
      });
}

void Client::write(Fh fh, Bytes offset, Bytes len,
                   std::function<void(Result<Bytes>)> done) {
  OpenFile* f = file(fh);
  if (reject(f == nullptr, done, "bad file handle")) return;
  if (!f->flags.write) {
    done(err(Errc::permission_denied, "not open for write"));
    return;
  }
  if (len == 0) {
    done(Bytes{0});
    return;
  }
  maybe_renew_lease();
  const Bytes bs = block_size();
  const std::uint64_t b0 = offset / bs;
  const std::uint64_t b1 = (offset + len - 1) / bs;
  const InodeNum ino = f->ino;
  const Bytes old_size = f->size;
  const Bytes new_size = std::max(f->size, offset + len);

  // Streaming-write detection: once the sequential pattern is confirmed
  // (two hits), batch the token grant and block allocation over the
  // ramp window. One-shot writes keep exact per-call block accounting.
  const std::uint64_t wnd = f->wb.on_access(b0, b1);
  const std::uint64_t batch =
      (f->wb.hits() >= 2 && wnd > 0)
          ? std::min<std::uint64_t>(wnd, kWriteBatchBlocks)
          : 0;

  const TokenRange required{offset, offset + len};
  const TokenRange desired =
      batch == 0 ? required : TokenRange{b0 * bs, (b1 + 1 + batch) * bs};

  ensure_token(
      ino, required, desired, LockMode::rw,
      [this, f, ino, b0, b1, batch, offset, len, bs, old_size, new_size,
       done = std::move(done)](Status st) mutable {
        if (!st.ok()) {
          done(st.error());
          return;
        }
        // Allocate missing blocks (batched). We always ask the manager
        // when any entry is unknown or a hole.
        bool need_alloc = false;
        for (std::uint64_t bi = b0; bi <= b1 && !need_alloc; ++bi) {
          need_alloc = !block_map_.lookup(ino, bi).mapped();
        }
        if (!need_alloc) {
          // Covered by an earlier allocate-ahead batch: an allocation
          // RPC the per-call protocol would have made.
          auto wm = alloc_ahead_hi_.find(ino);
          if (wm != alloc_ahead_hi_.end() && b1 < wm->second) {
            ++meta_rpcs_saved_;
          }
        }
        auto proceed = [this, f, ino, b0, b1, offset, len, bs, old_size,
                        new_size, done = std::move(done)](Status st) mutable {
          if (!st.ok()) {
            done(st.error());
            return;
          }
          // Read-modify-write edges: partially written blocks that
          // already have on-disk contents must be fetched first.
          std::vector<std::uint64_t> rmw;
          if (offset % bs != 0 && b0 * bs < old_size &&
              !pool_.contains({ino, b0})) {
            rmw.push_back(b0);
          }
          if ((offset + len) % bs != 0 && b1 != b0 && b1 * bs < old_size &&
              !pool_.contains({ino, b1})) {
            rmw.push_back(b1);
          }
          auto commit = [this, f, ino, b0, b1, len, new_size,
                         done = std::move(done)](Status st) mutable {
            if (!st.ok()) {
              done(st.error());
              return;
            }
            for (std::uint64_t bi = b0; bi <= b1; ++bi) {
              const PageKey key{ino, bi};
              const bool was_dirty = pool_.is_dirty(key);
              if (!pool_.insert_dirty(key)) {
                done(err(Errc::io_error,
                         "pagepool pinned solid with dirty pages"));
                return;
              }
              if (!was_dirty) {
                const MapLookup e = block_map_.lookup(ino, bi);
                MGFS_ASSERT(e.mapped(), "dirty page without placement");
                dirty_fifo_.push_back(key);
                dirty_addr_[key] = e.placement;
              }
            }
            // Commits can land out of order: an allocate-ahead-covered
            // write completes synchronously while an earlier write still
            // waits on its allocation reply. Size only ever grows.
            f->size = std::max(f->size, new_size);
            pump_flush();
            if (pool_.dirty_bytes() <= cfg_.max_dirty) {
              // A write whose token, map and allocation are all batched
              // ahead reaches here synchronously; callers' issue loops
              // are not re-entrant, so complete through the event queue.
              simulator().defer([len, done = std::move(done)] { done(len); });
            } else {
              // Write-behind cap reached: stall the writer until flushes
              // bring the dirty total back under the cap.
              stalled_writers_.push_back(
                  [len, done = std::move(done)] { done(len); });
            }
          };
          if (rmw.empty()) {
            commit(Status{});
            return;
          }
          FanIn join(rmw.size(), std::move(commit));
          for (std::uint64_t bi : rmw) {
            std::vector<BlockFetch> fetch;
            const BlockPlan p = plan_block(ino, bi, false, fetch);
            if (p == BlockPlan::join || p == BlockPlan::fetch) {
              fill_waiters_[PageKey{ino, bi}].push_back(join);
            } else {
              join();
            }
            issue_fills(std::move(fetch));
          }
        };
        if (!need_alloc) {
          proceed(Status{});
          return;
        }
        // On a confirmed streak, allocate the ramp window ahead of the
        // write so the next `batch` writes skip the allocation RPC.
        const std::size_t count =
            static_cast<std::size_t>(b1 - b0 + 1 + batch);
        meta_call<BlockMapChunk>(
            fs_->shard_of(ino), kMetaPayload,
            [ino, b0, count, new_size](FileSystem& fs, ClientId me,
                                       Rpc::ReplyFn<BlockMapChunk> reply) {
              reply(16 * count, fs.op_allocate(ino, b0, count, new_size, me));
            },
            [this, ino, b0, count, batch, proceed = std::move(proceed)](
                Result<BlockMapChunk> res) mutable {
              if (!res.ok()) {
                if (res.code() == Errc::stale) on_lease_lapsed();
                proceed(res.error());
                return;
              }
              block_map_.install(ino, *res);
              if (batch > 0) {
                std::uint64_t& hi = alloc_ahead_hi_[ino];
                hi = std::max(hi, b0 + count);
              }
              proceed(Status{});
            });
      });
}

void Client::fsync(Fh fh, std::function<void(Status)> done) {
  OpenFile* f = file(fh);
  if (reject(f == nullptr, done, "bad file handle")) return;
  const InodeNum ino = f->ino;
  const Bytes size = f->size;
  flush_inode(ino, [this, ino, size, done = std::move(done)]() mutable {
    if (!mounted()) {
      done(Status{});
      return;
    }
    meta_status(
        fs_->shard_of(ino), 64, 64,
        [ino, size](FileSystem& fs, ClientId me) {
          return fs.op_extend_size(ino, size, me);
        },
        [this, done = std::move(done)](Status st) {
          if (st.code() == Errc::stale) on_lease_lapsed();
          done(st);
        });
  });
}

void Client::flush_all(sim::Callback done) {
  // Every inode with dirty pages, and every inode whose pages are
  // already in flight but no longer dirty in the pool.
  std::set<InodeNum> inodes;
  for (const PageKey& k : pool_.all_dirty()) inodes.insert(k.ino);
  for (const auto& [ino, n] : inflight_per_ino_) inodes.insert(ino);
  if (inodes.empty()) {
    rpc_.pool().network().simulator().defer(std::move(done));
    return;
  }
  FanIn join(inodes.size(), [done = std::move(done)](Status) { done(); });
  for (InodeNum ino : inodes) flush_inode(ino, join);
}

void Client::close(Fh fh, std::function<void(Status)> done) {
  fsync(fh, [this, fh, done = std::move(done)](Status st) {
    open_.erase(fh);
    done(st);
  });
}

void Client::refresh_size(Fh fh, std::function<void(Result<Bytes>)> done) {
  OpenFile* f = file(fh);
  if (reject(f == nullptr, done, "bad file handle")) return;
  const InodeNum ino = f->ino;
  meta_call<Bytes>(
      fs_->shard_of(ino), 64,
      [ino](FileSystem& fs, ClientId, Rpc::ReplyFn<Bytes> reply) {
        auto st = fs.ns().stat(ino);
        if (!st.ok()) {
          reply(64, st.error());
        } else {
          reply(64, st->size);
        }
      },
      [this, fh, done = std::move(done)](Result<Bytes> res) {
        if (res.ok()) {
          if (OpenFile* f2 = file(fh)) f2->size = std::max(f2->size, *res);
        }
        done(std::move(res));
      });
}

// --------------------------------------------------------------------------
// namespace pass-throughs
// --------------------------------------------------------------------------

void Client::stat(const std::string& path,
                  std::function<void(Result<StatInfo>)> done) {
  if (reject(!mounted(), done, "not mounted")) return;
  meta_call<StatInfo>(
      fs_->shard_of_path(path), kMetaPayload,
      [path](FileSystem& fs, ClientId, Rpc::ReplyFn<StatInfo> reply) {
        reply(128, fs.op_stat(path));
      },
      std::move(done));
}

void Client::mkdir(const std::string& path, const Principal& who, Mode mode,
                   std::function<void(Status)> done) {
  if (reject(!mounted(), done, "not mounted")) return;
  meta_status(
      fs_->shard_of_path(path), kMetaPayload, 64,
      [path, who, mode](FileSystem& fs, ClientId) {
        auto r = fs.op_mkdir(path, who, mode);
        return r.ok() ? Status{} : Status(r.error());
      },
      std::move(done));
}

void Client::readdir(const std::string& path, const Principal& who,
                     std::function<void(Result<std::vector<std::string>>)>
                         done) {
  if (reject(!mounted(), done, "not mounted")) return;
  meta_call<std::vector<std::string>>(
      fs_->shard_of_path(path), kMetaPayload,
      [path, who](FileSystem& fs, ClientId,
                  Rpc::ReplyFn<std::vector<std::string>> reply) {
        auto r = fs.op_readdir(path, who);
        const Bytes payload = r.ok() ? 32 * r->size() + 64 : 64;
        reply(payload, std::move(r));
      },
      std::move(done));
}

void Client::unlink(const std::string& path, const Principal& who,
                    std::function<void(Status)> done) {
  if (reject(!mounted(), done, "not mounted")) return;
  meta_status(
      fs_->shard_of_path(path), kMetaPayload, 64,
      [path, who](FileSystem& fs, ClientId me) {
        return fs.op_unlink(path, who, me);
      },
      std::move(done));
}

void Client::rename(const std::string& from, const std::string& to,
                    const Principal& who, std::function<void(Status)> done) {
  if (reject(!mounted(), done, "not mounted")) return;
  // Routed by the source path's shard; op_rename itself gates on both
  // paths' domains, so a takeover on either side pauses the op.
  meta_status(
      fs_->shard_of_path(from), kMetaPayload, 64,
      [from, to, who](FileSystem& fs, ClientId) {
        return fs.op_rename(from, to, who);
      },
      std::move(done));
}

// --------------------------------------------------------------------------
// monitoring
// --------------------------------------------------------------------------

std::string Client::mmpmon() const {
  std::ostringstream os;
  os << "mmpmon node " << node_.v << " io_s\n"
     << "  _br_ " << bytes_read_remote_ << "\n"      // bytes read (NSD)
     << "  _bw_ " << bytes_written_remote_ << "\n"   // bytes written (NSD)
     << "  _dir_ " << open_.size() << "\n"           // open files
     << "  _ch_ " << pool_.hits() << "\n"            // cache hits
     << "  _cm_ " << pool_.misses() << "\n"          // cache misses
     << "  _cd_ " << pool_.dirty_bytes() << "\n"     // dirty bytes pending
     << "  _fo_ " << failovers_ << "\n"              // NSD failovers
     << "  _rep_ " << replica_reads_ << "\n"         // non-primary replica reads
     << "  _rfo_ " << replica_failovers_ << "\n"     // replica failovers
     << "  _rtr_ " << rpc_retries_ << "\n"           // RPC retries
     << "  _to_ " << rpc_timeouts_ << "\n"           // RPC deadline expiries
     << "  _bop_ " << breaker_opens_ << "\n"         // breaker opens
     << "  _bsc_ " << breaker_skips_ << "\n"         // breaker-skipped I/Os
     << "  _prb_ " << breaker_probes_ << "\n"        // half-open probes
     << "  _ra_ " << ra_issued_ << "\n"              // readahead fills issued
     << "  _coal_ " << coal_blocks_ << "\n"          // blocks coalesced
     << "  _spl_ " << coal_splits_ << "\n"           // coalesced-run splits
     << "  _mrpc_ " << meta_rpcs_saved_ << "\n"      // metadata RPCs saved
     << "  _lse_ " << lease_renewals_ << "\n"        // lease renewals
     << "  _lps_ " << lease_lapses_ << "\n"          // lease lapses
     << "  _fnc_ " << fenced_writes_ << "\n"         // fenced (stale) writes
     << "  _mto_ " << mgr_takeovers_ << "\n"         // manager takeovers seen
     << "  _mrr_ " << mgr_reroutes_ << "\n"          // manager-RPC reroutes
     << "  _smg_ " << stale_mgr_rejects_ << "\n"     // stale-manager refusals
     << "  _rpb_ " << recovery_probes_ << "\n"       // fast recovery probes
     << "  _rp50_ " << recovery_op_hist_.quantile(0.5) << "\n"  // p50 (s)
     << "  _rp99_ " << recovery_op_hist_.quantile(0.99) << "\n";  // p99 (s)
  return os.str();
}

// --------------------------------------------------------------------------
// disk lease
// --------------------------------------------------------------------------

void Client::set_lease(std::uint64_t epoch, double duration) {
  lease_epoch_ = epoch;
  lease_duration_ = duration;
  lease_renewed_at_ = simulator().now();
}

void Client::maybe_renew_lease() {
  if (!mounted() || lease_duration_ <= 0 || lapse_handling_ ||
      lease_renew_inflight_) {
    return;
  }
  const double now = simulator().now();
  if (now - lease_renewed_at_ < 0.5 * lease_duration_) return;
  lease_renew_inflight_ = true;
  const std::uint64_t inc = incarnation_;
  // Shard 0 is the lease home: one renewal RPC covers every shard (the
  // batched heartbeat — a lease asserts node liveness, not per-domain
  // authority).
  meta_call<std::uint64_t>(
      0, 64,
      [](FileSystem& fs, ClientId me, Rpc::ReplyFn<std::uint64_t> reply) {
        reply(64, fs.op_lease_renew(me));
      },
      [this, inc](Result<std::uint64_t> r) {
        if (incarnation_ != inc) return;  // superseded by crash/rejoin
        lease_renew_inflight_ = false;
        if (!mounted()) return;
        if (r.ok()) {
          ++lease_renewals_;
          lease_renewed_at_ = simulator().now();
          return;
        }
        if (r.code() == Errc::stale) {
          on_lease_lapsed();
        }
        // Transient failure: lease_renewed_at_ stays old, so the next
        // read/write retries the renewal immediately.
      });
}
}  // namespace mgfs::gpfs
