#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "fault/injector.hpp"
#include "gpfs/cluster.hpp"
#include "net/presets.hpp"
#include "storage/array.hpp"
#include "workload/mpiio.hpp"

namespace mgfs::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Links = std::vector<std::pair<net::NodeId, net::NodeId>>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double MBps(double bytes, double seconds) {
  return ratio(bytes, seconds) / 1e6;
}

/// Are blocks [first, first + count) of `ino` all allocated? Reads of a
/// hole return zeros at full length, so a byte count alone cannot tell
/// acknowledged data from a lost allocation.
bool allocated(gpfs::FileSystem& fs, gpfs::InodeNum ino, std::uint64_t first,
               std::uint64_t count) {
  auto map = fs.op_block_map(ino, first, count);
  return map.ok() && std::all_of(map->addrs.begin(), map->addrs.end(),
                                 [](const auto& a) { return a.has_value(); });
}

/// Does `path` exist with `size` bytes and every block allocated?
bool stored(gpfs::FileSystem& fs, const std::string& path, Bytes size) {
  auto st = fs.op_stat(path);
  return st.ok() && st->size == size &&
         allocated(fs, st->ino, 0, ceil_div(size, fs.block_size()));
}

const gpfs::Principal kUser{"/C=US/O=NPACI/CN=perfbench", 501, 100, false};
const gpfs::Principal kAdmin{"/CN=seed", 0, 0, true};

/// Everything one episode builds. Members are declared in dependency
/// order: clusters reference devices and the network, so they go last
/// and are destroyed first.
struct World {
  explicit World(bool trace) : rec(sim, trace) {}

  sim::Simulator sim;
  net::Network net{sim};
  Recorder rec;
  std::vector<std::unique_ptr<storage::StorageArray>> arrays;
  std::vector<std::unique_ptr<storage::BlockDevice>> devices;
  std::vector<std::unique_ptr<TracedDevice>> traced;
  std::vector<std::unique_ptr<gpfs::Cluster>> clusters;
  std::unique_ptr<fault::FaultInjector> inject;
  gpfs::FileSystem* fs = nullptr;  // the file system under test
  std::vector<gpfs::NsdServer*> servers;
  /// (host, switch) pairs of NSD server NICs and application client
  /// NICs, and the WAN links (site uplink, backbone).
  Links server_links, client_links, wan_links;
  std::vector<gpfs::Client*> clients;  // every client ever mounted

  gpfs::Cluster& add_cluster(gpfs::ClusterConfig cfg, Rng rng) {
    clusters.push_back(
        std::make_unique<gpfs::Cluster>(sim, net, std::move(cfg), rng));
    return *clusters.back();
  }
  /// The device an NSD is registered with: the device itself, or a
  /// TracedDevice around it in traced runs.
  storage::BlockDevice* nsd_device(storage::BlockDevice& dev,
                                   storage::Lun* lun) {
    if (!rec.tracing()) return &dev;
    traced.push_back(std::make_unique<TracedDevice>(sim, dev, lun, rec));
    return traced.back().get();
  }
  /// Start NSD service on `srv` (hosts behind switch `sw`).
  void add_servers(gpfs::Cluster& cluster, const std::vector<net::NodeId>& srv,
                   net::NodeId sw) {
    for (net::NodeId n : srv) {
      if (!cluster.has_node(n)) cluster.add_node(n);
      servers.push_back(&cluster.add_nsd_server(n));
      server_links.emplace_back(n, sw);
    }
  }
  /// RateDevice-backed NSDs, NSD i served by servers i and i+1 — the
  /// stand-in for disk farms whose spindles are not under study.
  std::vector<std::uint32_t> rate_nsds(gpfs::Cluster& cluster,
                                       const std::vector<net::NodeId>& srv,
                                       std::size_t count, BytesPerSec rate,
                                       Bytes capacity) {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < count; ++i) {
      devices.push_back(std::make_unique<storage::RateDevice>(
          sim, capacity, rate, 0.5e-3, "dev" + std::to_string(i)));
      ids.push_back(cluster.create_nsd(
          "nsd" + std::to_string(i), nsd_device(*devices.back(), nullptr),
          srv[i % srv.size()], srv[(i + 1) % srv.size()],
          static_cast<std::uint32_t>(i % srv.size())));
    }
    return ids;
  }
  gpfs::Client* mount(gpfs::Cluster& cluster, const std::string& fsname,
                      net::NodeId node) {
    auto c = cluster.mount(fsname, node);
    MGFS_ASSERT(c.ok(), "mount failed");
    clients.push_back(*c);
    return *c;
  }
};

// ---------------------------------------------------------------------------
// Per-layer counters, read from the system's getters. A timed phase
// adds the difference between a reading at its end and one at its start.

enum Counter : std::size_t {
  kNetBytes, kRpcCalls, kRpcTimeouts, kRpcConns, kNsdRequests, kNsdBytes,
  kNsdCpu, kNsdFenced, kNsdGated, kHits, kMisses, kRaFills, kRemoteRead,
  kRemoteWritten, kCoalBlocks, kCoalRequests, kMetaSaved, kRetries,
  kTimeouts, kFailovers, kBreakerOpens, kTokens, kRevocations,
  kDelegations, kJournal, kRenewals, kExpels, kTakeovers, kRebuildRpcs,
  kReplays, kOverlap, kLinkCuts, kNodeCrashes, kBlackholes, kFailSlows,
  kMgrCrashes, kCounterCount
};

struct Reading {
  std::vector<double> v = std::vector<double>(kCounterCount, 0.0);
  /// Busy seconds of both directions of each link.
  std::vector<double> server_busy, client_busy, wan_busy;
};

std::vector<double> link_busy(net::Network& net, const Links& links) {
  std::vector<double> out;
  const double now = net.simulator().now();
  for (auto [a, b] : links) {
    for (const sim::Pipe* p : {net.pipe(a, b), net.pipe(b, a)}) {
      MGFS_ASSERT(p != nullptr, "link without a pipe");
      out.push_back(p->utilization() * now);
    }
  }
  return out;
}

Reading read_counters(World& w) {
  Reading r;
  auto& v = r.v;
  for (const Links* links : {&w.server_links, &w.client_links}) {
    for (auto [host, sw] : *links) {
      v[kNetBytes] += static_cast<double>(w.net.pipe(host, sw)->bytes_moved());
    }
  }
  for (auto& cl : w.clusters) {
    v[kRpcCalls] += static_cast<double>(cl->rpc().calls());
    v[kRpcTimeouts] += static_cast<double>(cl->rpc().timeouts());
    v[kRpcConns] +=
        static_cast<double>(cl->connection_pool().connections_created());
  }
  for (gpfs::NsdServer* s : w.servers) {
    v[kNsdRequests] += static_cast<double>(s->requests_served());
    v[kNsdBytes] += static_cast<double>(s->bytes_served());
    v[kNsdCpu] += s->cpu().busy_seconds();
    v[kNsdFenced] += static_cast<double>(s->fenced_writes());
    v[kNsdGated] += static_cast<double>(s->gated_retries());
  }
  for (gpfs::Client* c : w.clients) {
    v[kHits] += static_cast<double>(c->pool().hits());
    v[kMisses] += static_cast<double>(c->pool().misses());
    v[kRaFills] += static_cast<double>(c->readahead_issued());
    v[kRemoteRead] += static_cast<double>(c->bytes_read_remote());
    v[kRemoteWritten] += static_cast<double>(c->bytes_written_remote());
    v[kCoalBlocks] += static_cast<double>(c->blocks_coalesced());
    v[kCoalRequests] += static_cast<double>(c->coalesced_requests());
    v[kMetaSaved] += static_cast<double>(c->meta_rpcs_saved());
    v[kRetries] += static_cast<double>(c->rpc_retries());
    v[kTimeouts] += static_cast<double>(c->rpc_timeouts());
    v[kFailovers] += static_cast<double>(c->nsd_failovers());
    v[kBreakerOpens] += static_cast<double>(c->breaker_opens());
  }
  gpfs::FileSystem& fs = *w.fs;
  v[kTokens] = static_cast<double>(fs.tokens_granted());
  v[kRevocations] = static_cast<double>(fs.revocations());
  v[kDelegations] = static_cast<double>(fs.delegations());
  for (std::uint32_t s = 0; s < fs.shard_count(); ++s) {
    v[kJournal] += static_cast<double>(fs.shard_journal(s).records_logged());
  }
  v[kRenewals] = static_cast<double>(fs.lease_renewals());
  v[kExpels] = static_cast<double>(fs.expels());
  v[kTakeovers] = static_cast<double>(fs.manager_takeovers());
  v[kRebuildRpcs] = static_cast<double>(fs.rebuild_rpcs());
  v[kReplays] = static_cast<double>(fs.journal_records_replayed());
  v[kOverlap] = static_cast<double>(fs.overlap_writes_admitted());
  if (w.inject) {
    v[kLinkCuts] = static_cast<double>(w.inject->link_cuts());
    v[kNodeCrashes] = static_cast<double>(w.inject->node_crashes());
    v[kBlackholes] = static_cast<double>(w.inject->blackholes());
    v[kFailSlows] = static_cast<double>(w.inject->fail_slows());
    v[kMgrCrashes] = static_cast<double>(w.inject->manager_crashes());
  }
  r.server_busy = link_busy(w.net, w.server_links);
  r.client_busy = link_busy(w.net, w.client_links);
  r.wan_busy = link_busy(w.net, w.wan_links);
  return r;
}

/// Link utilization over timed phases, pooled over episodes: busy
/// seconds of each link's busier direction against the phase length.
struct LinkUtil {
  double busy = 0, den = 0, max = 0;
  void add(const std::vector<double>& a, const std::vector<double>& b,
           double span) {
    for (std::size_t i = 0; i + 1 < a.size(); i += 2) {
      const double u = std::max(b[i] - a[i], b[i + 1] - a[i + 1]);
      busy += u;
      den += span;
      max = std::max(max, ratio(u, span));
    }
  }
  double mean() const { return ratio(busy, den); }
};

/// Latencies of one kind of operation, kept per episode. A rep reports
/// the median over its episodes of each episode's percentile: steadier
/// from seed to seed than the percentile of the pooled samples, which
/// the episode with the heaviest tail dominates.
struct EpisodeLatency {
  std::vector<double> p50, p99;
  std::size_t samples = 0;

  void add(std::vector<double> ms) {
    samples += ms.size();
    p50.push_back(quantile(ms, 0.50));
    p99.push_back(quantile(ms, 0.99));
  }
  void report(MetricList& m, const std::string& name) const {
    m.add(name + "_samples", static_cast<double>(samples), "count");
    m.add(name + "_p50_ms", median(p50), "ms");
    m.add(name + "_p99_ms", median(p99), "ms");
  }
};

/// One rep's totals over the timed phases of all its episodes.
struct Tally {
  /// Run the slow output checks: FileSystem::fsck() after each episode
  /// and the per-file block-map checks of smallfile_meta.
  bool verify = true;
  /// Stop each episode once its set-up is timed (see setup_seconds).
  bool setup_only = false;
  std::vector<double> setup_s, wall_s;  // per episode
  std::uint64_t events = 0;
  std::vector<double> c = std::vector<double>(kCounterCount, 0.0);
  LinkUtil server_nic, client_nic, wan;
  double nsd_cpu_den = 0;  // server-seconds of timed phase
  double blocks = 0;       // data blocks the clients moved
  double handshakes = 0;
  double app_read = 0;     // bytes the application's reads returned
  std::array<std::vector<double>, static_cast<std::size_t>(Op::count)> op_ms;
  double dev_ios = 0, dev_bytes = 0, dev_busy = 0, dev_den = 0, spindle = 0;
  std::vector<double> dev_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failed_checks;
  std::vector<Span> spans;
  std::uint64_t span_base = 0;
  // End-to-end totals.
  double wbytes = 0, wsec = 0, rbytes = 0, rsec = 0;
  EpisodeLatency io;  // Client read and write calls

  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
  /// Every read and write call the recorder timed in this episode.
  void add_io(Recorder& rec) {
    std::vector<double> ms = rec.latencies_ms(Op::read);
    const auto& wr = rec.latencies_ms(Op::write);
    ms.insert(ms.end(), wr.begin(), wr.end());
    io.add(std::move(ms));
  }
  RepResult result(bool trace);
};

/// The timed phase of one episode.
class Window {
 public:
  Window(World& w, Tally& t) : w_(w), t_(t) {}

  void start() {
    w_.rec.start_window();
    for (auto& d : w_.traced) d->start_window();
    t0_ = w_.sim.now();
    ev0_ = w_.sim.events_processed();
    r0_ = read_counters(w_);
    wall0_ = Clock::now();
  }

  /// End the phase: add its host time, events and counters to the tally
  /// and check the file system. `app_read` is what the application's
  /// reads returned.
  void finish(double app_read) {
    t_.wall_s.push_back(seconds_since(wall0_));
    t_.events += w_.sim.events_processed() - ev0_;
    const double span = w_.sim.now() - t0_;
    const Reading r1 = read_counters(w_);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      t_.c[i] += r1.v[i] - r0_.v[i];
    }
    t_.server_nic.add(r0_.server_busy, r1.server_busy, span);
    t_.client_nic.add(r0_.client_busy, r1.client_busy, span);
    t_.wan.add(r0_.wan_busy, r1.wan_busy, span);
    t_.nsd_cpu_den += span * static_cast<double>(w_.servers.size());
    t_.blocks += (r1.v[kRemoteRead] - r0_.v[kRemoteRead] +
                  r1.v[kRemoteWritten] - r0_.v[kRemoteWritten]) /
                 static_cast<double>(w_.fs->block_size());
    for (auto& cl : w_.clusters) {
      t_.handshakes += static_cast<double>(cl->handshakes_completed());
    }
    t_.app_read += app_read;
    for (std::size_t op = 0; op < t_.op_ms.size(); ++op) {
      const auto& v = w_.rec.latencies_ms(static_cast<Op>(op));
      t_.op_ms[op].insert(t_.op_ms[op].end(), v.begin(), v.end());
    }
    for (auto& d : w_.traced) {
      t_.dev_ios += static_cast<double>(d->ios());
      t_.dev_bytes += static_cast<double>(d->bytes());
      t_.dev_busy += d->window_busy_seconds();
      t_.dev_den += span;
      t_.spindle += static_cast<double>(d->window_spindle_bytes());
      t_.dev_ms.insert(t_.dev_ms.end(), d->latencies_ms().begin(),
                       d->latencies_ms().end());
    }
    t_.attempted += w_.rec.attempted();
    t_.failed += w_.rec.failed();
    if (t_.verify) {
      t_.check(w_.fs->fsck().clean(), "fsck clean after the workload");
    }
    // Span ids restart in every episode; shift them past the previous
    // episode's.
    std::uint64_t top = t_.span_base;
    for (Span s : w_.rec.spans()) {
      s.id += t_.span_base;
      if (s.parent != 0) s.parent += t_.span_base;
      top = std::max(top, s.id);
      t_.spans.push_back(s);
    }
    t_.span_base = top;
  }

 private:
  World& w_;
  Tally& t_;
  Clock::time_point wall0_;
  double t0_ = 0;
  std::uint64_t ev0_ = 0;
  Reading r0_;
};

RepResult Tally::result(bool trace) {
  RepResult out;
  out.wall_s = wall_s;
  out.sim_events = events;
  out.attempted = attempted;
  out.failed = failed;
  out.failed_checks = failed_checks;
  out.spans = std::move(spans);

  out.sim.add("write_MBps", MBps(wbytes, wsec), "MB/s");
  out.sim.add("read_MBps", MBps(rbytes, rsec), "MB/s");
  io.report(out.sim, "io");

  MetricList& L = out.layer;
  L.add("sim.events", static_cast<double>(events), "count");
  L.add("net.bytes", c[kNetBytes], "B");
  L.add("net.server_nic_util", server_nic.mean(), "share");
  L.add("net.server_nic_util_max", server_nic.max, "share");
  L.add("net.client_nic_util", client_nic.mean(), "share");
  L.add("net.wan_util", wan.mean(), "share");
  L.add("rpc.calls", c[kRpcCalls], "count");
  L.add("rpc.timeouts", c[kRpcTimeouts], "count");
  L.add("rpc.conns_created", c[kRpcConns], "count");
  if (trace) {
    L.add("storage.ios", dev_ios, "count");
    L.add("storage.bytes_per_io", ratio(dev_bytes, dev_ios), "B");
    L.add("storage.io_p50_ms", quantile(dev_ms, 0.50), "ms");
    L.add("storage.io_p99_ms", quantile(dev_ms, 0.99), "ms");
    L.add("storage.busy_share", ratio(dev_busy, dev_den), "share");
    // RAID-5 amplification: bytes the member disks moved per byte asked
    // of the LUN (1 for devices without members).
    L.add("storage.spindle_bytes_per_user_byte", ratio(spindle, dev_bytes),
          "ratio");
  }
  L.add("nsd.requests", c[kNsdRequests], "count");
  L.add("nsd.bytes_per_request", ratio(c[kNsdBytes], c[kNsdRequests]), "B");
  L.add("nsd.cpu_busy_share", ratio(c[kNsdCpu], nsd_cpu_den), "share");
  L.add("nsd.fenced_writes", c[kNsdFenced], "count");
  L.add("nsd.gated_retries", c[kNsdGated], "count");
  L.add("client.pagepool_hit_ratio", ratio(c[kHits], c[kHits] + c[kMisses]),
        "ratio");
  L.add("client.readahead_fills", c[kRaFills], "count");
  // Bytes the application's reads returned per byte fetched from NSDs.
  L.add("client.readahead_useful_ratio", ratio(app_read, c[kRemoteRead]),
        "ratio");
  // Requests = single-block requests + coalesced multi-block requests.
  L.add("client.blocks_per_request",
        ratio(blocks, blocks - c[kCoalBlocks] + c[kCoalRequests]), "ratio");
  L.add("client.meta_rpcs_saved", c[kMetaSaved], "count");
  L.add("client.retries", c[kRetries], "count");
  L.add("client.timeouts", c[kTimeouts], "count");
  L.add("client.nsd_failovers", c[kFailovers], "count");
  L.add("client.breaker_opens", c[kBreakerOpens], "count");
  for (std::size_t op = 0; op < op_ms.size(); ++op) {
    const std::string n = std::string("client.") + kOpNames[op];
    L.add(n + "_p50_ms", quantile(op_ms[op], 0.50), "ms");
    L.add(n + "_p99_ms", quantile(op_ms[op], 0.99), "ms");
  }
  L.add("mgr.tokens_granted", c[kTokens], "count");
  L.add("mgr.revocations", c[kRevocations], "count");
  L.add("mgr.delegations", c[kDelegations], "count");
  L.add("mgr.journal_records", c[kJournal], "count");
  L.add("mgr.lease_renewals", c[kRenewals], "count");
  L.add("mgr.expels", c[kExpels], "count");
  L.add("mgr.takeovers", c[kTakeovers], "count");
  L.add("mgr.rebuild_rpcs", c[kRebuildRpcs], "count");
  L.add("mgr.journal_replays", c[kReplays], "count");
  L.add("mgr.overlap_writes_admitted", c[kOverlap], "count");
  // Handshakes happen at mount time, so this one counts the whole run.
  L.add("auth.handshakes", handshakes, "count");
  L.add("fault.link_cuts", c[kLinkCuts], "count");
  L.add("fault.node_crashes", c[kNodeCrashes], "count");
  L.add("fault.blackholes", c[kBlackholes], "count");
  L.add("fault.fail_slows", c[kFailSlows], "count");
  L.add("fault.manager_crashes", c[kMgrCrashes], "count");
  return out;
}

// ---------------------------------------------------------------------------
// MPI-IO tasks: the access pattern of workload::MpiIoJob (task i owns
// file blocks i, i+N, i+2N, ... and moves each in transfer-sized calls,
// queue_depth in flight, then closes; close includes the fsync), driven
// here so that every Client call passes through the Recorder. A task
// whose call fails stops, as MpiIoJob does; the error counts as a
// failed call.

class MpiIoTasks {
 public:
  MpiIoTasks(Recorder& rec, std::vector<gpfs::Client*> tasks, std::string path,
             workload::MpiIoConfig cfg)
      : rec_(rec), path_(std::move(path)), cfg_(cfg) {
    for (gpfs::Client* c : tasks) tasks_.push_back(Task{c});
  }

  /// Runs every task; `done` gets the simulated seconds from start to
  /// the last task's end.
  void run(std::function<void(double)> done) {
    done_ = std::move(done);
    t0_ = rec_.now();
    remaining_ = tasks_.size();
    for (std::size_t t = 0; t < tasks_.size(); ++t) open(t);
  }
  /// Did task `t` move its whole share? For writes: closed, and
  /// therefore fsync-acknowledged.
  bool completed(std::size_t t) const { return tasks_[t].completed; }
  /// Bytes of the tasks whose share completed.
  Bytes completed_bytes() const {
    Bytes n = 0;
    for (const Task& k : tasks_) n += k.completed ? cfg_.per_task : 0;
    return n;
  }

 private:
  struct Task {
    gpfs::Client* client = nullptr;
    gpfs::Fh fh = -1;
    Bytes issued = 0;
    Bytes done = 0;
    std::size_t inflight = 0;
    bool stopped = false, completed = false;
  };

  Bytes offset(std::size_t t, Bytes linear) const {
    const Bytes k = linear / cfg_.block;
    return (t + k * tasks_.size()) * cfg_.block + linear % cfg_.block;
  }

  void open(std::size_t t) {
    gpfs::Client* c = tasks_[t].client;
    const gpfs::OpenFlags flags =
        cfg_.write ? gpfs::OpenFlags::create_rw() : gpfs::OpenFlags::ro();
    rec_.call(
        Op::open, 0,
        [this, c, flags](auto k) { c->open(path_, kUser, flags, k); },
        [this, t](Result<gpfs::Fh> r) {
          if (!r.ok()) return stop(t);
          tasks_[t].fh = *r;
          pump(t);
        });
  }

  void pump(std::size_t t) {
    Task& tk = tasks_[t];
    while (tk.inflight < cfg_.queue_depth && tk.issued < cfg_.per_task) {
      const Bytes off = offset(t, tk.issued);
      tk.issued += cfg_.transfer;
      ++tk.inflight;
      transfer(t, off);
    }
  }

  void transfer(std::size_t t, Bytes off) {
    gpfs::Client* c = tasks_[t].client;
    const gpfs::Fh fh = tasks_[t].fh;
    const Bytes n = cfg_.transfer;
    auto cont = [this, t, n](Result<Bytes> r) {
      Task& k = tasks_[t];
      --k.inflight;
      if (!r.ok() || *r != n) {
        k.stopped = true;
      } else {
        k.done += n;
      }
      if (k.stopped || k.done == cfg_.per_task) {
        if (k.inflight == 0) close(t);
        return;
      }
      pump(t);
    };
    if (cfg_.write) {
      rec_.call(Op::write, 0,
                [c, fh, off, n](auto k) { c->write(fh, off, n, k); }, cont);
    } else {
      rec_.call(Op::read, 0,
                [c, fh, off, n](auto k) { c->read(fh, off, n, k); }, cont);
    }
  }

  void close(std::size_t t) {
    gpfs::Client* c = tasks_[t].client;
    const gpfs::Fh fh = tasks_[t].fh;
    rec_.call(
        Op::close, 0, [c, fh](auto k) { c->close(fh, k); },
        [this, t](Status st) {
          Task& k = tasks_[t];
          // A read task has its bytes once its reads returned them.
          k.completed = !k.stopped && (st.ok() || !cfg_.write);
          finished();
        });
  }

  void stop(std::size_t t) {
    tasks_[t].stopped = true;
    finished();
  }

  void finished() {
    if (--remaining_ == 0) done_(rec_.now() - t0_);
  }

  Recorder& rec_;
  std::string path_;
  workload::MpiIoConfig cfg_;
  std::vector<Task> tasks_;
  std::size_t remaining_ = 0;
  double t0_ = 0;
  std::function<void(double)> done_;
};

/// Run one MPI-IO phase to completion and add it to the write or read
/// totals; returns which tasks completed their share.
std::vector<bool> run_mpiio_phase(World& w, Tally& t,
                                  std::vector<gpfs::Client*> tasks,
                                  const std::string& path,
                                  const workload::MpiIoConfig& cfg) {
  std::optional<double> secs;
  const std::size_t n = tasks.size();
  MpiIoTasks job(w.rec, std::move(tasks), path, cfg);
  job.run([&](double s) { secs = s; });
  w.sim.run();
  MGFS_ASSERT(secs.has_value(), "MPI-IO phase did not finish");
  (cfg.write ? t.wbytes : t.rbytes) += static_cast<double>(job.completed_bytes());
  (cfg.write ? t.wsec : t.rsec) += *secs;
  std::vector<bool> ok(n);
  for (std::size_t i = 0; i < n; ++i) ok[i] = job.completed(i);
  return ok;
}

// ---------------------------------------------------------------------------
// mpiio_shared: Fig. 11 production hardware, 64 tasks on one shared file.

void mpiio_shared_episode(Tally& t, Rng rng, bool trace) {
  constexpr std::size_t kServers = 64, kArrays = 32, kTasks = 64;
  const auto setup0 = Clock::now();
  World w(trace);
  const net::Site room =
      net::add_site(w.net, "sdsc", kServers + kTasks + 1, gbps(1.0));
  gpfs::ClusterConfig cfg;
  cfg.name = "sdsc";
  cfg.tcp.window = 2 * MiB;
  cfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster& cluster = w.add_cluster(cfg, rng.split());
  for (net::NodeId h : room.hosts) cluster.add_node(h);
  const std::vector<net::NodeId> srv(room.hosts.begin(),
                                     room.hosts.begin() + kServers);
  w.add_servers(cluster, srv, room.sw);
  const net::NodeId manager = room.hosts[kServers];
  const std::vector<net::NodeId> nodes(room.hosts.begin() + kServers + 1,
                                       room.hosts.end());
  for (net::NodeId n : nodes) w.client_links.emplace_back(n, room.sw);

  // Every DS4100 LUN (a RAID-5 set behind a controller) is one NSD.
  std::vector<std::uint32_t> ids;
  Rng disk_rng = rng.split();
  for (std::size_t a = 0; a < kArrays; ++a) {
    w.arrays.push_back(std::make_unique<storage::StorageArray>(
        w.sim, storage::ArraySpec::ds4100(), disk_rng.split()));
    storage::StorageArray& arr = *w.arrays.back();
    for (std::size_t l = 0; l < arr.lun_count(); ++l) {
      const std::size_t idx = ids.size();
      ids.push_back(cluster.create_nsd(
          "ds4100-" + std::to_string(a) + "-l" + std::to_string(l),
          w.nsd_device(arr.lun(l), &arr.lun(l)), srv[idx % kServers],
          srv[(idx + kServers / 2) % kServers]));
    }
  }
  w.fs = &cluster.create_filesystem("gpfs-prod", ids, 1 * MiB, manager);
  std::vector<gpfs::Client*> writers;
  for (net::NodeId n : nodes) writers.push_back(w.mount(cluster, "gpfs-prod", n));
  t.setup_s.push_back(seconds_since(setup0));
  if (t.setup_only) return;

  workload::MpiIoConfig mcfg;
  mcfg.block = 128 * MiB;
  mcfg.transfer = 1 * MiB;
  mcfg.queue_depth = 6;
  mcfg.per_task = 512 * MiB;
  const double total = static_cast<double>(mcfg.per_task * kTasks);
  const double w0 = t.wbytes, r0 = t.rbytes;

  Window win(w, t);
  win.start();
  mcfg.write = true;
  run_mpiio_phase(w, t, writers, "/mpi", mcfg);
  for (gpfs::Client* c : writers) cluster.unmount(c);
  // Fresh clients on the same nodes read back with cold caches.
  std::vector<gpfs::Client*> readers;
  for (net::NodeId n : nodes) readers.push_back(w.mount(cluster, "gpfs-prod", n));
  mcfg.write = false;
  run_mpiio_phase(w, t, readers, "/mpi", mcfg);
  win.finish(t.rbytes - r0);
  t.add_io(w.rec);

  t.check(t.wbytes - w0 == total, "MPI-IO writes moved tasks x per_task bytes");
  t.check(t.rbytes - r0 == total, "MPI-IO reads moved tasks x per_task bytes");
  t.check(stored(*w.fs, "/mpi", mcfg.per_task * kTasks),
          "shared file holds tasks x per_task bytes, every block allocated");
}

// ---------------------------------------------------------------------------
// smallfile_meta: 256 clients, 4 metadata shards, create and shared-read
// cycles against the token/journal plane.

struct SmallFileTotals {
  double cycles = 0, elapsed = 0;
  EpisodeLatency create, shared_read;
};

void smallfile_episode(Tally& t, SmallFileTotals& s, Rng rng, bool trace) {
  constexpr std::size_t kServers = 8, kNsds = 32, kShards = 4, kClients = 256;
  constexpr std::size_t kCycles = 48;  // per client; every 4th is a read
  constexpr Bytes kFile = 16 * KiB;
  const auto setup0 = Clock::now();
  World w(trace);

  // Generated inputs: each client's start offset and, for each shared
  // read, which of its next four neighbours' files it opens.
  struct ClientPlan {
    double start = 0;
    std::vector<std::size_t> targets;
  };
  std::vector<ClientPlan> plan(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    plan[i].start = rng.uniform(0.0, 1e-3);
    for (std::size_t k = 0; k < kCycles / 4; ++k) {
      plan[i].targets.push_back((i + 1 + rng.below(4)) % kClients);
    }
  }

  const net::Site site =
      net::add_site(w.net, "meta", kServers + kShards + kClients, gbps(1.0));
  gpfs::ClusterConfig cfg;
  cfg.name = "meta";
  cfg.tcp.window = 2 * MiB;
  cfg.tcp.chunk = 1 * MiB;
  cfg.meta_shards = kShards;
  cfg.meta_cpu_per_op = 30e-6;
  cfg.auto_delegate_ops = 4;
  gpfs::Cluster& cluster = w.add_cluster(cfg, rng.split());
  const std::vector<net::NodeId> srv(site.hosts.begin(),
                                     site.hosts.begin() + kServers);
  w.add_servers(cluster, srv, site.sw);
  std::vector<net::NodeId> seats;
  for (std::size_t i = 0; i < kShards; ++i) {
    seats.push_back(site.hosts[kServers + i]);
    cluster.add_node(seats.back());
  }
  // 16 KiB blocks: each file is one block, so the data path stays a
  // sub-millisecond flush and the manager CPU is the contended resource.
  const auto ids = w.rate_nsds(cluster, srv, kNsds, BytesPerSec(200e6), 64 * GiB);
  w.fs = &cluster.create_filesystem("meta", ids, 16 * KiB, seats[0]);
  cluster.set_shard_managers(*w.fs, seats);
  std::vector<gpfs::Client*> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    const net::NodeId n = site.hosts[kServers + kShards + i];
    cluster.add_node(n);
    w.client_links.emplace_back(n, site.sw);
    clients.push_back(w.mount(cluster, "meta", n));
  }

  // Per-client state. `latest` is the client's newest closed file — the
  // one a neighbour's shared read opens; its writer still holds the
  // token, so the read goes through a revoke.
  struct ClientState {
    std::size_t cycle = 0;
    std::string latest;
    std::vector<std::string> created;
  };
  std::vector<ClientState> drv(kClients);
  std::vector<double> create_ms, shared_ms;
  Bytes written = 0, read = 0;
  std::size_t short_reads = 0, done_clients = 0;
  double last_done = 0;
  Recorder& rec = w.rec;

  // One create cycle: open-create, 16 KiB write, fsync, close. `then`
  // runs when the cycle ends, whether or not a call failed.
  auto create = [&](std::size_t i, const std::string& path, bool timed,
                    std::function<void()> then) {
    gpfs::Client* c = clients[i];
    const double t0 = rec.now();
    const std::uint64_t id = rec.new_span();
    rec.call(
        Op::open, id,
        [c, path](auto k) {
          c->open(path, kUser, gpfs::OpenFlags::create_rw(), k);
        },
        [&, c, i, id, t0, path, timed, then](Result<gpfs::Fh> fh) {
          if (!fh.ok()) return then();
          const gpfs::Fh h = *fh;
          rec.call(
              Op::write, id, [c, h](auto k) { c->write(h, 0, kFile, k); },
              [&, c, i, id, h, t0, path, timed, then](Result<Bytes> wr) {
                if (!wr.ok()) return then();
                rec.call(
                    Op::fsync, id, [c, h](auto k) { c->fsync(h, k); },
                    [&, c, i, id, h, t0, path, timed, then,
                     n = *wr](Status st) {
                      if (!st.ok()) return then();
                      rec.call(
                          Op::close, id, [c, h](auto k) { c->close(h, k); },
                          [&, i, id, t0, path, timed, then, n](Status cs) {
                            if (!cs.ok()) return then();
                            drv[i].latest = path;
                            if (timed) {
                              written += n;
                              drv[i].created.push_back(path);
                              create_ms.push_back((rec.now() - t0) * 1e3);
                              rec.span("cycle.create", id, 0, t0);
                            }
                            then();
                          });
                    });
              });
        });
  };
  // One shared-read cycle: open a neighbour's newest file, read it, close.
  auto shared = [&](std::size_t i, std::size_t k, std::function<void()> then) {
    gpfs::Client* c = clients[i];
    const std::string path = drv[plan[i].targets[k / 4]].latest;
    const double t0 = rec.now();
    const std::uint64_t id = rec.new_span();
    rec.call(
        Op::open, id,
        [c, path](auto k) { c->open(path, kUser, gpfs::OpenFlags::ro(), k); },
        [&, c, id, t0, then](Result<gpfs::Fh> fh) {
          if (!fh.ok()) return then();
          const gpfs::Fh h = *fh;
          rec.call(
              Op::read, id, [c, h](auto k) { c->read(h, 0, kFile, k); },
              [&, c, id, h, t0, then](Result<Bytes> r) {
                if (!r.ok()) return then();
                if (*r != kFile) ++short_reads;
                read += *r;
                rec.call(
                    Op::close, id, [c, h](auto k) { c->close(h, k); },
                    [&, id, t0, then](Status cs) {
                      if (!cs.ok()) return then();
                      shared_ms.push_back((rec.now() - t0) * 1e3);
                      rec.span("cycle.shared_read", id, 0, t0);
                      then();
                    });
              });
        });
  };
  std::function<void(std::size_t)> next = [&](std::size_t i) {
    ClientState& d = drv[i];
    if (d.cycle == kCycles) {
      ++done_clients;
      last_done = rec.now();
      return;
    }
    const std::size_t k = d.cycle++;
    if (k % 4 == 3) {
      shared(i, k, [&, i] { next(i); });
    } else {
      create(i, "/c" + std::to_string(i) + "_f" + std::to_string(k), true,
             [&, i] { next(i); });
    }
  };

  // Every client writes one file first, so each shared read has a
  // neighbour's file to open from the first group of cycles on.
  std::size_t seeded = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    create(i, "/c" + std::to_string(i) + "_seed", false, [&] { ++seeded; });
  }
  w.sim.run();
  MGFS_ASSERT(seeded == kClients, "seed files not written");
  t.setup_s.push_back(seconds_since(setup0));
  if (t.setup_only) return;

  Window win(w, t);
  win.start();
  const double t0 = w.sim.now();
  for (std::size_t i = 0; i < kClients; ++i) {
    w.sim.at(t0 + plan[i].start, [&, i] { next(i); });
  }
  w.sim.run();
  win.finish(static_cast<double>(read));
  t.add_io(rec);

  const double elapsed = last_done - t0;
  const std::size_t creates = kClients * (kCycles - kCycles / 4);
  const std::size_t reads = kClients * (kCycles / 4);
  t.check(done_clients == kClients, "every client finished its cycles");
  t.check(create_ms.size() == creates, "every create cycle completed");
  t.check(shared_ms.size() == reads, "every shared read completed");
  t.check(short_reads == 0 && read == reads * kFile,
          "each shared read returned 16 KiB");
  if (t.verify) {
    std::size_t bad_files = 0;
    for (const ClientState& d : drv) {
      for (const std::string& p : d.created) bad_files += !stored(*w.fs, p, kFile);
    }
    t.check(bad_files == 0,
            "each created file stats at 16 KiB, its block allocated");
  }
  // Goodput per cycle kind, each on its own time base: bytes over the
  // summed latency of the cycles that moved them. A slower revoke then
  // lowers read_MBps and leaves write_MBps alone.
  auto seconds = [](const std::vector<double>& ms) {
    double sum = 0;
    for (double x : ms) sum += x;
    return sum / 1e3;
  };
  t.wbytes += static_cast<double>(written);
  t.rbytes += static_cast<double>(read);
  t.wsec += seconds(create_ms);
  t.rsec += seconds(shared_ms);
  s.cycles += static_cast<double>(creates + reads);
  s.elapsed += elapsed;
  s.create.add(std::move(create_ms));
  s.shared_read.add(std::move(shared_ms));
}

// ---------------------------------------------------------------------------
// wan_query: NCSA clients query SDSC's file system over the TeraGrid at
// a ladder of Poisson arrival rates while an Enzo-style writer streams
// a dump back to SDSC. Each rung is an episode on a fresh world, so a
// rung's latencies do not depend on what the rungs before it left in
// the caches.

const std::vector<double> kRates{20, 40, 60, 80, 100};
constexpr std::size_t kRefRung = 1;  // 40 qps
constexpr Bytes kSurvey = 256 * GiB;
constexpr std::size_t kWanReaders = 16;

/// Samples above the p99 that quantile() picks from `n` samples.
constexpr std::size_t beyond_p99(std::size_t n) { return n - n * 99 / 100 - 1; }

struct Query {
  double due = 0;  // from the rung's start
  std::size_t client = 0;
  Bytes offset = 0;
  Bytes len = 0;
};

/// Generated inputs: per rung, Poisson arrivals, the serving client, and
/// a uniformly placed extent whose length is exponential with a 16 MiB
/// mean.
std::vector<std::vector<Query>> wan_ladder(Rng rng) {
  // Queries per rung: enough on every rung for a p99 with ten samples
  // beyond it, and a long reference rung, whose read calls give this
  // workload's io metrics, so they stay steady from seed to seed.
  constexpr std::size_t kQueries = 1100, kRefQueries = 9000;
  static_assert(beyond_p99(kQueries) >= 10 && beyond_p99(kRefQueries) >= 10);
  constexpr double kMeanQuery = 16.0 * MiB;
  std::vector<std::vector<Query>> ladder(kRates.size());
  for (std::size_t r = 0; r < kRates.size(); ++r) {
    double at = 0;
    const std::size_t n = r == kRefRung ? kRefQueries : kQueries;
    for (std::size_t q = 0; q < n; ++q) {
      at += rng.exponential(1.0 / kRates[r]);
      Query qu;
      qu.due = at;
      qu.client = rng.below(kWanReaders);
      qu.len = std::clamp<Bytes>(
          static_cast<Bytes>(rng.exponential(kMeanQuery)), 1, kSurvey);
      qu.offset = rng.below(kSurvey - qu.len + 1);
      ladder[r].push_back(qu);
    }
  }
  return ladder;
}

/// Runs rung `rung` of the ladder; returns its query latencies (ms),
/// none when only the set-up is timed.
std::vector<double> wan_query_episode(Tally& t, std::size_t rung,
                                      const std::vector<Query>& queries,
                                      Rng rng, bool trace) {
  constexpr std::size_t kServers = 16, kNsds = 32, kReaders = kWanReaders;
  constexpr Bytes kChunk = 4 * MiB;
  constexpr std::size_t kDepth = 4;
  constexpr double kWriterRate = 200e6;  // application bytes/s
  const auto setup0 = Clock::now();
  World w(trace);

  net::TeraGridSpec spec;
  spec.sdsc_hosts = kServers + 1;
  spec.ncsa_hosts = kReaders + 1;
  const net::TeraGrid tg = net::make_teragrid_2004(w.net, spec);
  w.wan_links = {{tg.sdsc.sw, tg.la}, {tg.la, tg.chi}};

  gpfs::ClusterConfig scfg;
  scfg.name = "sdsc";
  scfg.tcp.window = 2 * MiB;
  scfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster& sdsc = w.add_cluster(scfg, rng.split());
  for (net::NodeId h : tg.sdsc.hosts) sdsc.add_node(h);
  const std::vector<net::NodeId> srv(tg.sdsc.hosts.begin(),
                                     tg.sdsc.hosts.begin() + kServers);
  w.add_servers(sdsc, srv, tg.sdsc.sw);
  const auto ids = w.rate_nsds(sdsc, srv, kNsds, BytesPerSec(100e6), 16 * GiB);
  w.fs = &sdsc.create_filesystem("gpfs-wan", ids, 1 * MiB,
                                 tg.sdsc.hosts[kServers]);
  // The survey file is laid down directly in the namespace and the
  // allocation maps: writing 256 GiB through the simulated network
  // would only add set-up time.
  {
    auto ino = w.fs->ns().create("/survey", kAdmin, gpfs::Mode{066}, 0.0);
    MGFS_ASSERT(ino.ok(), "survey create");
    for (std::uint64_t bi = 0; bi < kSurvey / w.fs->block_size(); ++bi) {
      auto addr = w.fs->alloc().allocate_on(w.fs->nsd_for_block(*ino, bi));
      MGFS_ASSERT(addr.ok() && w.fs->ns().set_block(*ino, bi, *addr).ok(),
                  "survey block");
    }
    MGFS_ASSERT(w.fs->ns().extend_size(*ino, kSurvey, 0.0).ok(), "survey size");
  }

  gpfs::ClusterConfig ncfg;
  ncfg.name = "ncsa";
  ncfg.tcp.window = 2 * MiB;
  ncfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster& ncsa = w.add_cluster(ncfg, rng.split());
  for (net::NodeId h : tg.ncsa.hosts) {
    ncsa.add_node(h);
    w.client_links.emplace_back(h, tg.ncsa.sw);
  }
  // mmauth / mmremotecluster / mmremotefs, then one handshake per mount.
  sdsc.mmauth_add("ncsa", ncsa.public_key());
  MGFS_ASSERT(sdsc.mmauth_grant("ncsa", "gpfs-wan",
                                auth::AccessMode::read_write).ok(),
              "mmauth grant");
  MGFS_ASSERT(ncsa.mmremotecluster_add("sdsc", sdsc.public_key(), &sdsc,
                                       tg.sdsc.hosts[kServers]).ok(),
              "mmremotecluster add");
  MGFS_ASSERT(ncsa.mmremotefs_add("/gpfs-wan", "sdsc", "gpfs-wan").ok(),
              "mmremotefs add");
  std::vector<gpfs::Client*> clients(tg.ncsa.hosts.size(), nullptr);
  for (std::size_t i = 0; i < tg.ncsa.hosts.size(); ++i) {
    ncsa.mount_remote("/gpfs-wan", tg.ncsa.hosts[i],
                      [&, i](Result<gpfs::Client*> r) {
                        MGFS_ASSERT(r.ok(), "remote mount failed");
                        clients[i] = *r;
                      });
  }
  w.sim.run();
  for (gpfs::Client* c : clients) {
    MGFS_ASSERT(c != nullptr, "remote mount did not complete");
    w.clients.push_back(c);
  }
  gpfs::Client* writer = clients[kReaders];
  std::vector<gpfs::Fh> fhs(kReaders, -1);
  for (std::size_t i = 0; i < kReaders; ++i) {
    clients[i]->open("/survey", kUser, gpfs::OpenFlags::ro(),
                     [&, i](Result<gpfs::Fh> r) {
                       MGFS_ASSERT(r.ok(), "survey open failed");
                       fhs[i] = *r;
                     });
  }
  w.sim.run();
  t.setup_s.push_back(seconds_since(setup0));
  if (t.setup_only) return {};

  Recorder& rec = w.rec;
  Window win(w, t);
  win.start();

  // One query keeps up to kDepth 4 MiB reads in flight over its extent
  // and is timed from its due time.
  struct QueryRun {
    const Query* q = nullptr;
    double due = 0;
    std::uint64_t span = 0;
    Bytes issued = 0, returned = 0;
    std::size_t inflight = 0;
    bool failed = false;
  };
  std::vector<QueryRun> runs(queries.size());
  std::vector<double> latency_ms;
  std::size_t late = 0, incomplete = 0;
  Bytes query_bytes = 0;
  std::function<void(QueryRun&)> pump = [&](QueryRun& qr) {
    while (!qr.failed && qr.inflight < kDepth && qr.issued < qr.q->len) {
      const Bytes n = std::min(kChunk, qr.q->len - qr.issued);
      gpfs::Client* c = clients[qr.q->client];
      const gpfs::Fh fh = fhs[qr.q->client];
      const Bytes off = qr.q->offset + qr.issued;
      qr.issued += n;
      ++qr.inflight;
      rec.call(Op::read, qr.span,
               [c, fh, off, n](auto k) { c->read(fh, off, n, k); },
               [&, p = &qr](Result<Bytes> r) {
                 --p->inflight;
                 if (!r.ok()) {
                   p->failed = true;
                 } else {
                   p->returned += *r;
                 }
                 if (p->inflight > 0 || (!p->failed && p->issued < p->q->len)) {
                   return pump(*p);
                 }
                 if (p->returned != p->q->len) ++incomplete;
                 query_bytes += p->returned;
                 latency_ms.push_back((rec.now() - p->due) * 1e3);
                 rec.span("query", p->span, 0, p->due);
               });
    }
  };

  // The writer: one dump file, a 4 MiB write every kChunk / kWriterRate
  // seconds (at most kDepth outstanding) until the rung's last arrival,
  // then fsync and close.
  struct Dump {
    std::string path;
    gpfs::Fh fh = -1;
    double start = 0, stop = 0, end = 0;
    Bytes acked = 0, issued = 0;
    std::size_t inflight = 0;
    bool closing = false, committed = false;
  };
  Dump dump;
  std::function<void(Dump&)> tick, commit;
  commit = [&](Dump& d) {
    if (d.closing || d.inflight > 0) return;
    d.closing = true;
    const std::uint64_t id = rec.new_span();
    rec.call(Op::fsync, id, [&, fh = d.fh](auto k) { writer->fsync(fh, k); },
             [&, p = &d, id](Status st) {
               rec.call(Op::close, id,
                        [&, fh = p->fh](auto k) { writer->close(fh, k); },
                        [&, p, id, ok = st.ok()](Status cs) {
                          p->committed = ok && cs.ok();
                          p->end = rec.now();
                          rec.span("dump.commit", id, 0, p->stop);
                        });
             });
  };
  tick = [&](Dump& d) {
    if (rec.now() >= d.stop) return commit(d);
    if (d.inflight < kDepth) {
      const Bytes off = d.issued;
      d.issued += kChunk;
      ++d.inflight;
      rec.call(Op::write, 0,
               [&, fh = d.fh, off](auto k) { writer->write(fh, off, kChunk, k); },
               [&, p = &d](Result<Bytes> r) {
                 --p->inflight;
                 if (r.ok()) p->acked += *r;
                 if (rec.now() >= p->stop) commit(*p);
               });
    }
    rec.after(static_cast<double>(kChunk) / kWriterRate,
              [&, p = &d] { tick(*p); });
  };

  const double t0 = w.sim.now();
  dump.path = "/dump";
  dump.start = t0;
  dump.stop = t0 + queries.back().due;
  rec.call(Op::open, 0,
           [&](auto k) {
             writer->open(dump.path, kUser, gpfs::OpenFlags::create_rw(), k);
           },
           [&](Result<gpfs::Fh> fh) {
             if (!fh.ok()) return;
             dump.fh = *fh;
             tick(dump);
           });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    QueryRun* qr = &runs[i];
    qr->q = &queries[i];
    qr->due = t0 + queries[i].due;
    w.sim.at(qr->due, [&, qr] {
      // Arrivals are scheduled at their due time, so the generator is
      // never late; a late start would understate query latency.
      if (rec.now() != qr->due) ++late;
      qr->span = rec.new_span();
      pump(*qr);
    });
  }
  w.sim.run();
  const double elapsed = w.sim.now() - t0;
  win.finish(static_cast<double>(query_bytes));

  t.check(late == 0, "query arrivals started at their due time");
  t.check(incomplete == 0, "each query returned its full extent");
  t.check(dump.committed && stored(*w.fs, dump.path, dump.acked),
          "the dump's file size equals the bytes acknowledged");
  // The end-to-end goodputs and io_p50/p99 of this workload come from
  // the reference rung.
  if (rung == kRefRung) {
    t.io.add(rec.latencies_ms(Op::read));
    t.wbytes += static_cast<double>(dump.acked);
    t.wsec += dump.end - dump.start;
    t.rbytes += static_cast<double>(query_bytes);
    t.rsec += elapsed;
  }
  return latency_ms;
}

// ---------------------------------------------------------------------------
// fault_soak: MPI-IO write, fsync and cold read-back under the chaos
// mix of bench/chaos_soak (4 servers, 8 NSDs, 0.5 s RPC deadlines, 3 s
// leases): link flaps, a fail-slow server, a blackholed server, server
// churn, a mute dirty writer and a manager crash, with 32 clients.

void fault_soak_episode(Tally& t, std::vector<double>& takeover_s, Rng rng,
                        bool trace) {
  constexpr std::size_t kServers = 4, kNsds = 8, kClients = 32;
  constexpr Bytes kTko = 64 * MiB;
  const auto setup0 = Clock::now();
  World w(trace);

  // Generated inputs: which server gets which fault (a permutation of
  // the four), the manager-crash delay after the write phase, and the
  // injector's own stream (flap and churn intervals).
  std::vector<std::size_t> role{0, 1, 2, 3};
  for (std::size_t i = role.size(); i > 1; --i) {
    std::swap(role[i - 1], role[rng.below(i)]);
  }
  const double crash_delay = rng.uniform(0.05, 0.25);
  const Rng inject_rng = rng.split();

  // Hosts: servers, manager, clients, then the dirty-writer pair.
  const net::Site site =
      net::add_site(w.net, "lan", kServers + 1 + kClients + 2, gbps(1.0));
  gpfs::ClusterConfig cfg;
  cfg.name = "chaos";
  cfg.client.rpc_deadline = 0.5;
  cfg.lease_duration = 3.0;
  cfg.lease_recovery_wait = 1.5;
  gpfs::Cluster& cluster = w.add_cluster(cfg, rng.split());
  const std::vector<net::NodeId> srv(site.hosts.begin(),
                                     site.hosts.begin() + kServers);
  w.add_servers(cluster, srv, site.sw);
  const net::NodeId manager = site.hosts[kServers];
  cluster.add_node(manager);
  const auto ids = w.rate_nsds(cluster, srv, kNsds, BytesPerSec(200e6), 4 * GiB);
  w.fs = &cluster.create_filesystem("chaos", ids, 1 * MiB, manager);
  std::vector<net::NodeId> nodes;
  std::vector<gpfs::Client*> writers;
  for (std::size_t i = 0; i < kClients; ++i) {
    const net::NodeId n = site.hosts[kServers + 1 + i];
    cluster.add_node(n);
    nodes.push_back(n);
    w.client_links.emplace_back(n, site.sw);
    writers.push_back(w.mount(cluster, "chaos", n));
  }
  const net::NodeId victim_node = site.hosts[kServers + 1 + kClients];
  const net::NodeId survivor_node = site.hosts[kServers + 2 + kClients];
  cluster.add_node(victim_node);
  cluster.add_node(survivor_node);
  gpfs::Client* victim = w.mount(cluster, "chaos", victim_node);
  gpfs::Client* survivor = w.mount(cluster, "chaos", survivor_node);

  w.inject = std::make_unique<fault::FaultInjector>(w.net, inject_rng);
  fault::FaultInjector& inject = *w.inject;
  inject.watch_pool(cluster.connection_pool());
  inject.watch_cluster(cluster);
  t.setup_s.push_back(seconds_since(setup0));
  if (t.setup_only) return;

  Window win(w, t);
  win.start();
  const double t0 = w.sim.now();
  inject.flap_link(srv[role[0]], site.sw, 1.5, 0.2, t0 + 0.1, t0 + 8.0);
  inject.schedule_fail_slow(t0 + 0.2, *cluster.server_on(srv[role[1]]), 50.0,
                            1.5);
  inject.schedule_blackhole(t0 + 0.5, srv[role[2]], 1.5);
  inject.churn_node(srv[role[3]], 2.0, 0.25, t0 + 0.3, t0 + 8.0);

  // Mute dirty writer: the victim stages never-fsynced write-behind and
  // goes dark; the survivor's overlapping write needs the victim's
  // token, so the manager expels the victim (journal replay) and its
  // late flush after the heal is fenced. These two clients are fault
  // actors, not application load: their calls bypass the Recorder.
  std::optional<gpfs::Fh> vfh, sfh;  // the victim's and survivor's handles
  std::optional<Status> survivor_sync;
  std::function<void(int)> survivor_write = [&](int attempts_left) {
    survivor->write(*sfh, 0, 4 * MiB, [&, attempts_left](Result<Bytes> r) {
      if (!r.ok() && attempts_left > 0) return survivor_write(attempts_left - 1);
      if (!r.ok()) {
        survivor_sync = Status(r.error());
        return;
      }
      survivor->fsync(*sfh, [&](Status st) { survivor_sync = st; });
    });
  };
  w.sim.at(t0 + 0.05, [&] {
    victim->open("/dirty", kUser, gpfs::OpenFlags::create_rw(),
                 [&](Result<gpfs::Fh> r) {
                   if (!r.ok()) return;
                   vfh = *r;
                   victim->write(*vfh, 0, 8 * MiB, [](Result<Bytes>) {});
                 });
  });
  inject.schedule_blackhole(t0 + 0.12, victim_node, 6.0);
  w.sim.at(t0 + 0.3, [&] {
    survivor->open("/dirty", kUser, gpfs::OpenFlags::rw(),
                   [&](Result<gpfs::Fh> r) {
                     if (!r.ok()) {
                       survivor_sync = Status(r.error());
                       return;
                     }
                     sfh = *r;
                     survivor_write(2);
                   });
  });

  // The manager crashes once the write phase has drained. A takeover
  // commit (a 64 MiB write whose fsync spans the crash) and two probe
  // stats from distinct clients give the successor post-takeover demand
  // and the two-reporter suspicion quorum. The commit is retried from
  // the open, the way an application would, until its fsync succeeds.
  std::optional<Status> tko_sync;
  std::function<void(int)> tko_commit = [&](int attempts_left) {
    gpfs::Client* c = writers[1];
    auto again = [&, attempts_left](Status st) {
      if (attempts_left == 0) {
        tko_sync = st;
        return;
      }
      w.sim.after(0.2, [&, attempts_left] { tko_commit(attempts_left - 1); });
    };
    c->open("/tko", kUser, gpfs::OpenFlags::create_rw(),
            [&, c, again](Result<gpfs::Fh> r) {
              if (!r.ok()) return again(r.error());
              const gpfs::Fh fh = *r;
              c->write(fh, 0, kTko, [&, c, fh, again](Result<Bytes> wr) {
                if (!wr.ok()) return again(wr.error());
                c->fsync(fh, [&, again](Status st) {
                  if (!st.ok()) return again(st);
                  tko_sync = st;
                });
              });
            });
  };
  workload::MpiIoConfig mcfg;
  mcfg.block = 16 * MiB;
  mcfg.transfer = 1 * MiB;
  mcfg.per_task = 64 * MiB;
  std::optional<double> wsec;
  MpiIoTasks wjob(w.rec, writers, "/soak", mcfg);
  wjob.run([&](double secs) {
    wsec = secs;
    const double now = w.sim.now();
    tko_commit(30);
    inject.schedule_crash_manager(now + crash_delay, *w.fs, 1.0);
    w.sim.at(now + crash_delay + 0.05, [&] {
      writers[0]->stat("/soak", [](Result<gpfs::StatInfo>) {});
      writers[2]->stat("/soak", [](Result<gpfs::StatInfo>) {});
    });
  });
  w.sim.run();
  MGFS_ASSERT(wsec.has_value(), "fault_soak write phase did not finish");
  t.wbytes += static_cast<double>(wjob.completed_bytes());
  t.wsec += *wsec;

  // Every fault has healed once the queue drains (each injected fault
  // schedules its own repair). Writers unmount; fresh clients read back.
  std::size_t down = 0;
  for (gpfs::Client* c : writers) cluster.unmount_flush(c, [&] { ++down; });
  w.sim.run();
  t.check(down == kClients, "writers unmounted");
  std::vector<gpfs::Client*> readers;
  for (net::NodeId n : nodes) readers.push_back(w.mount(cluster, "chaos", n));
  mcfg.write = false;
  const double r0 = t.rbytes;
  const std::vector<bool> read = run_mpiio_phase(w, t, readers, "/soak", mcfg);
  win.finish(t.rbytes - r0);
  t.add_io(w.rec);

  // Durability: each share whose close (and so fsync) was acknowledged
  // is allocated after the heal and read back in full. Shares whose
  // writer failed are the application's loss, counted in `failed`.
  auto soak = w.fs->op_stat("/soak");
  const Bytes fsb = w.fs->block_size();
  std::size_t lost = 0, unread = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    if (!wjob.completed(i)) continue;
    unread += !read[i];
    for (Bytes k = 0; k < mcfg.per_task / mcfg.block; ++k) {
      const Bytes off = (i + k * kClients) * mcfg.block;
      lost += !soak.ok() || !allocated(*w.fs, soak->ino, off / fsb,
                                       mcfg.block / fsb);
    }
  }
  t.check(lost == 0, "every fsync-acknowledged share is allocated after the heal");
  t.check(unread == 0, "every fsync-acknowledged share read back");
  t.check(tko_sync.has_value() && tko_sync->ok() && stored(*w.fs, "/tko", kTko),
          "takeover commit acknowledged and intact after the heal");
  t.check(survivor_sync.has_value() && survivor_sync->ok(),
          "survivor's overlapping write committed past the mute writer");
  t.check(w.fs->replica_divergences() == 0, "no divergent replicas");
  t.check(w.fs->manager_takeovers() >= 1, "manager takeover ran");
  takeover_s.push_back(w.fs->takeover_to_first_grant_s());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"mpiio_shared", "smallfile_meta",
                                              "wan_query", "fault_soak"};
  return names;
}

RepResult run_workload(const std::string& workload, std::uint64_t seed,
                       bool trace, bool verify,
                       const std::function<void()>& between) {
  // A rep runs a fixed number of independent episodes, each on its own
  // stream split from the seed, and pools them: enough simulated work
  // that each metric's spread across seeds stays well inside its bound.
  Rng master(seed);
  Tally t;
  t.verify = verify;
  if (workload == "mpiio_shared") {
    mpiio_shared_episode(t, master.split(), trace);
    return t.result(trace);
  }
  if (workload == "smallfile_meta") {
    constexpr int kEpisodes = 8;
    SmallFileTotals s;
    for (int e = 0; e < kEpisodes; ++e) {
      if (e > 0) between();
      smallfile_episode(t, s, master.split(), trace);
    }
    RepResult out = t.result(trace);
    out.sim.add("meta_ops_per_s", ratio(s.cycles, s.elapsed), "1/s");
    s.create.report(out.sim, "create");
    s.shared_read.report(out.sim, "shared_read");
    return out;
  }
  if (workload == "wan_query") {
    constexpr double kLimitMs = 2000;  // p99 limit for query_max_qps
    const auto ladder = wan_ladder(master.split());
    std::vector<std::vector<double>> query_ms;
    for (std::size_t r = 0; r < kRates.size(); ++r) {
      if (r > 0) between();
      query_ms.push_back(
          wan_query_episode(t, r, ladder[r], master.split(), trace));
    }
    RepResult out = t.result(trace);
    double max_qps = 0;
    for (std::size_t r = 0; r < kRates.size(); ++r) {
      const double p99 = quantile(query_ms[r], 0.99);
      if (p99 <= kLimitMs) max_qps = kRates[r];
      const std::string at = "_at_" + std::to_string(static_cast<int>(kRates[r]));
      out.sim.add("query_p50_ms" + at, quantile(query_ms[r], 0.50), "ms");
      out.sim.add("query_p99_ms" + at, p99, "ms");
    }
    auto& ref = query_ms[kRefRung];
    out.sim.add("query_samples", static_cast<double>(ref.size()), "count");
    out.sim.add("query_p50_ms", quantile(ref, 0.50), "ms");
    out.sim.add("query_p99_ms", quantile(ref, 0.99), "ms");
    out.sim.add("query_max_qps", max_qps, "1/s");
    return out;
  }
  MGFS_ASSERT(workload == "fault_soak", "unknown workload");
  constexpr int kEpisodes = 12;
  std::vector<double> takeover_s;
  for (int e = 0; e < kEpisodes; ++e) {
    if (e > 0) between();
    fault_soak_episode(t, takeover_s, master.split(), trace);
  }
  RepResult out = t.result(trace);
  out.sim.add("takeover_grant_s", median(takeover_s), "s");
  return out;
}

double setup_seconds(const std::string& workload, std::uint64_t seed) {
  Rng master(seed);
  Tally t;
  t.setup_only = true;
  if (workload == "mpiio_shared") {
    mpiio_shared_episode(t, master.split(), false);
  } else if (workload == "smallfile_meta") {
    SmallFileTotals s;
    smallfile_episode(t, s, master.split(), false);
  } else if (workload == "wan_query") {
    const auto ladder = wan_ladder(master.split());
    wan_query_episode(t, 0, ladder[0], master.split(), false);
  } else {
    std::vector<double> takeover_s;
    fault_soak_episode(t, takeover_s, master.split(), false);
  }
  return t.setup_s.front();
}

}  // namespace mgfs::perfbench
