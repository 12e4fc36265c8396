// Chaos soak: the fault-injection acceptance run.
//
// Without --scenario it runs the default soak. Phase A runs an MPI-IO
// write + read-back workload on a healthy 4-server / 4-client cluster
// and records the fault-free goodput. Phase B rebuilds the identical
// cluster (same seeds) and replays the identical workload under a
// seeded fault schedule:
//   * the first NSD server's LAN link flaps (Exp MTTF/MTTR),
//   * the second NSD server turns fail-slow (50x request CPU),
//   * the third NSD server is blackholed — accepts traffic, answers
//     nothing — for a stretch,
//   * the file-system manager node crashes mid-soak (successor
//     election, token-state rebuild, manager-epoch fencing),
//   * a dirty writer goes mute behind a blackhole (expel, journal
//     replay, and its healed late flush fenced),
// all while clients run with a tight RPC deadline so recovery comes
// from the retry/breaker machinery, not from waiting out the faults.
//
// Pass criteria (printed and enforced via exit code):
//   * the job completes, and every byte written is read back (no loss),
//   * chaos goodput >= 50% of the fault-free run,
//   * the recovery counters (retries, timeouts, breaker opens, expels,
//     journal replays, fenced writes, manager takeovers) are nonzero —
//     the run actually exercised the machinery.
//
// `--scenario NAME` runs one drill of the table kDrills at the end of
// this file, where each row describes its drill. `--json PATH` dumps
// the default soak's (or the site_outage drill's) metrics
// machine-readably.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string_view>

#include "bench_util.hpp"
#include "common/histogram.hpp"
#include "fault/injector.hpp"
#include "workload/mpiio.hpp"

using namespace mgfs;

namespace {

using ull = unsigned long long;

/// Acceptance checklist: prints its heading, then each check as PASS or
/// FAIL; `ok` stays true while every check so far passed.
struct Checks {
  Checks() { std::cout << "\nAcceptance:\n"; }
  bool ok = true;
  void operator()(bool cond, const char* what) {
    std::printf("  [%s] %s\n", cond ? "PASS" : "FAIL", what);
    ok = ok && cond;
  }
};

/// Cluster "chaos" with client RPC deadline `deadline`.
gpfs::ClusterConfig chaos_cfg(double deadline) {
  gpfs::ClusterConfig c;
  c.name = "chaos";
  c.client.rpc_deadline = deadline;
  return c;
}

gpfs::ClusterConfig with_lease(gpfs::ClusterConfig c, double lease,
                               double recovery_wait) {
  c.lease_duration = lease;
  c.lease_recovery_wait = recovery_wait;
  return c;
}

/// The lease drills' cluster: a tight deadline and a short lease, so
/// expel, takeover and fencing all play out within a few seconds.
const gpfs::ClusterConfig kLeaseDrill = with_lease(chaos_cfg(0.3), 0.8, 0.4);
/// Recovery budget of the lease drills: 3 lease periods.
const double kLeaseBudget =
    3.0 * (kLeaseDrill.lease_duration + kLeaseDrill.lease_recovery_wait);

/// Issue `op` until it succeeds or `attempts` re-issues are spent, then
/// hand its last outcome to `done`. A re-issue waits `delay` seconds;
/// 0 re-issues at once, from inside the failed op's completion.
template <typename T>
void retry(sim::Simulator& sim, int attempts, sim::Time delay,
           std::function<void(std::function<void(T)>)> op,
           std::function<void(T)> done) {
  op([&sim, attempts, delay, op, done](T r) {
    if (r.ok() || attempts == 0) {
      done(std::move(r));
    } else if (delay == 0) {
      retry(sim, attempts - 1, delay, op, done);
    } else {
      sim.after(delay, [&sim, attempts, delay, op, done] {
        retry(sim, attempts - 1, delay, op, done);
      });
    }
  });
}

/// One counter summed over `xs` (clients or NSD servers).
template <typename T>
std::uint64_t sum(const std::vector<T*>& xs,
                  std::uint64_t (T::*counter)() const) {
  std::uint64_t n = 0;
  for (T* x : xs) n += (x->*counter)();
  return n;
}

/// A read or write issued mid-run: its outcome, and the sim time it
/// landed (0 if it never did).
struct Landed {
  std::optional<Result<Bytes>> result;
  double at = 0;
  bool ok() const { return result.has_value() && result->ok(); }
  bool moved(Bytes n) const { return ok() && **result == n; }
};

/// What a drill's world is built from.
struct WorldSpec {
  std::size_t hosts;  // GbE hosts on the one-switch site
  gpfs::ClusterConfig cfg;
  std::size_t servers;              // NSD servers at hosts [0, servers)
  std::size_t nsds;                 // 4 GiB rate devices behind them
  std::vector<std::size_t> mounts = {};  // hosts mounting "chaos"
  std::uint64_t fault_seed = 7;
};

/// One drill's world: sim, network, cluster, farm, mounted clients and
/// a seeded fault injector watching the cluster (when a node it crashed
/// restarts, its broken pooled connections are reset and its mounted
/// clients are expelled and re-admitted under a fresh lease epoch).
/// Node ids, client ids and Rng splits follow call order, so a drill
/// must build its world in one fixed order.
struct World {
  sim::Simulator sim;
  net::Network net{sim};
  net::Site site;
  std::unique_ptr<gpfs::Cluster> cluster;
  bench::ServerFarm farm;
  fault::FaultInjector inject;
  std::vector<gpfs::Client*> clients;  // the spec's mounts, in order

  /// Sim and network only, for a drill that lays out its own sites and
  /// cluster (it then calls watch()).
  World() : inject(net, Rng(7)) {}
  /// A one-switch site, cluster "chaos" (seed 42) and a rate farm: NSD
  /// servers at hosts [0, servers), the manager at host `servers`.
  explicit World(const WorldSpec& spec)
      : site(net::add_site(net, "s", spec.hosts, gbps(1.0))),
        cluster(std::make_unique<gpfs::Cluster>(sim, net, spec.cfg, Rng(42))),
        farm(bench::make_rate_farm(*cluster, sim, site, /*first_host=*/0,
                                   spec.servers, spec.nsds, BytesPerSec(200e6),
                                   /*device_capacity=*/4 * GiB, "chaos")),
        inject(net, Rng(spec.fault_seed)) {
    clients = mount(spec.mounts);
    watch();
  }

  void watch() {
    inject.watch_pool(cluster->connection_pool());
    inject.watch_cluster(*cluster);
  }

  /// Add site hosts `hosts` as member nodes, then mount `fs` on each.
  std::vector<gpfs::Client*> mount(const std::vector<std::size_t>& hosts,
                                   const std::string& fs = "chaos") {
    for (std::size_t h : hosts) cluster->add_node(site.hosts.at(h));
    std::vector<gpfs::Client*> out;
    for (std::size_t h : hosts) {
      out.push_back(
          bench::must(cluster->mount(fs, site.hosts.at(h)), "mount failed"));
    }
    return out;
  }

  /// Open `path` on `c` as bench::kUser; the open must succeed.
  gpfs::Fh open(gpfs::Client* c, const std::string& path,
                gpfs::OpenFlags f) {
    return bench::must(
        bench::await(sim, c, &gpfs::Client::open, path, bench::kUser, f),
        "open failed");
  }

  /// After `delay`, open `path` on `c` into `fh` (the open must
  /// succeed), then run `then`.
  void open_after(sim::Time delay, gpfs::Client* c, const char* path,
                  gpfs::OpenFlags f, std::optional<gpfs::Fh>& fh,
                  std::function<void()> then) {
    sim.after(delay, [=, &fh] {
      c->open(path, bench::kUser, f, [&fh, then](Result<gpfs::Fh> r) {
        fh = bench::must(std::move(r), "open failed");
        then();
      });
    });
  }

  /// Completion callback that fills `l`.
  std::function<void(Result<Bytes>)> land(Landed& l) {
    return [this, &l](Result<Bytes> r) {
      l.result = std::move(r);
      l.at = sim.now();
    };
  }

  /// Write [off, off + len) through `c` (it must succeed), then fsync
  /// with retry(attempts, delay) and hand the outcome to `done`.
  void commit_async(gpfs::Client* c, gpfs::Fh fh, Bytes off, Bytes len,
                    int attempts, sim::Time delay,
                    std::function<void(Status)> done) {
    c->write(fh, off, len, [=, this](Result<Bytes> r) {
      bench::must(r, "commit write failed");
      retry<Status>(
          sim, attempts, delay, [=](auto cb) { c->fsync(fh, cb); }, done);
    });
  }

  /// Write [off, off + len) through `c` and fsync it; both must succeed.
  void commit(gpfs::Client* c, gpfs::Fh fh, Bytes off, Bytes len,
              const char* what) {
    bench::must(bench::await(sim, c, &gpfs::Client::write, fh, off, len),
                what);
    bench::must(bench::await(sim, c, &gpfs::Client::fsync, fh), what);
  }

  /// Writes the farm's NSD servers refused for a stale epoch.
  std::uint64_t nsd_fenced_writes() {
    std::vector<gpfs::NsdServer*> servers;
    for (net::NodeId n : farm.server_nodes) {
      servers.push_back(cluster->server_on(n));
    }
    return sum(servers, &gpfs::NsdServer::fenced_writes);
  }
};

/// One JSON metric, printed fixed-point with `precision` decimals;
/// counters print as integers.
struct JsonField {
  JsonField(const char* k, double v, int p) : key(k), value(v), precision(p) {}
  JsonField(const char* k, std::uint64_t v)
      : JsonField(k, static_cast<double>(v), 0) {}
  const char* key;
  double value;
  int precision;
};

void write_json(const std::string& path, const char* name,
                const std::vector<JsonField>& fields, bool pass) {
  std::ofstream out(path);
  out << std::fixed << "{\n  \"bench\": \"" << name << "\",\n";
  for (const JsonField& f : fields) {
    out.precision(f.precision);
    out << "  \"" << f.key << "\": " << f.value << ",\n";
  }
  out << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "\n  JSON written to " << path << "\n";
}

/// One soak phase: goodput, bytes moved, client 0's mmpmon, and the
/// recovery metrics in BENCH_chaos.json order.
struct RunResult {
  double write_MBps = 0;
  double read_MBps = 0;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  std::string mmpmon;
  std::vector<JsonField> metrics = {};

  /// The metric named `key` (it must exist).
  double operator[](std::string_view key) const {
    auto it = std::find_if(metrics.begin(), metrics.end(),
                           [key](const JsonField& f) { return key == f.key; });
    MGFS_ASSERT(it != metrics.end(), "no such soak metric");
    return it->value;
  }
};

constexpr std::size_t kServers = 4;
constexpr std::size_t kClients = 4;
constexpr Bytes kPerTask = 64 * MiB;

RunResult run_workload(bool inject_faults) {
  // Hosts: servers, manager, writer clients, a second bank of reader
  // clients (cold caches — the read-back must hit the devices,
  // otherwise "zero data loss" only checks the writers' pagepools),
  // plus a dirty-writer pair for the expel/fencing episode the fault
  // phase folds in, a replication-episode pair (writer + cold reader of
  // a 2-copy file) and three serving nodes for the episode's own
  // replicated file system at the end.
  //
  // Tight deadline: faults must be survived by retry/failover/breakers,
  // not by outlasting them. Leases short enough that the folded-in
  // dirty-writer episode runs its full expel -> journal replay -> fence
  // cycle inside the soak.
  World w({.hosts = kServers + 1 + 2 * kClients + 2 + 2 + 3,
           .cfg = with_lease(chaos_cfg(0.5), 3.0, 1.5),
           .servers = kServers,
           .nsds = 8,
           .fault_seed = 1337});
  sim::Simulator& sim = w.sim;
  gpfs::Cluster& cluster = *w.cluster;
  const bench::ServerFarm& farm = w.farm;

  // Every mount on "chaos": writers, cold readers, then the dirty-writer
  // pair. Both episode pairs (this one and the replication pair) are
  // mounted in both phases so the cluster shape (node ids, client ids,
  // seeded RNG draws) is identical; only the fault phase drives the
  // dirty-writer pair, while the replication script runs in both so
  // the baseline and the chaos run measure the same workload.
  std::vector<gpfs::Client*> fleet;
  for (std::size_t i = 0; i < 2 * kClients; ++i) {
    fleet.push_back(w.mount({kServers + 1 + i})[0]);
  }
  const std::vector<gpfs::Client*> clients(fleet.begin(),
                                           fleet.begin() + kClients);
  const std::vector<gpfs::Client*> readers(fleet.begin() + kClients,
                                           fleet.end());
  const auto pair =
      w.mount({kServers + 1 + 2 * kClients, kServers + 2 + 2 * kClients});
  gpfs::Client* victim = pair[0];
  gpfs::Client* dsurv = pair[1];
  fleet.insert(fleet.end(), pair.begin(), pair.end());

  // Replication episode: its own small file system over three serving
  // nodes so its fault window (BOTH serving nodes of one NSD dark, far
  // longer than the 4-attempt retry horizon) never clogs the measured
  // workload's flush slots or stalls its token revocations. NSD layout
  // (fs-local): nsd0 r0/r1, nsd1 r1/r2, nsd2 r2/r0; site = serving
  // node, so a 2-copy file lands each block's copies behind different
  // primaries. Blackholing r0+r1 kills nsd0 outright (both serving
  // nodes dark) while nsd1 fails over to its live backup r2 and nsd2
  // stays up — exactly one copy of some blocks survives.
  std::vector<net::NodeId> rep_srv;
  std::vector<std::unique_ptr<storage::BlockDevice>> rep_devices;
  std::vector<std::uint32_t> rep_nsd_ids;
  for (std::size_t i = 0; i < 3; ++i) {
    net::NodeId n = w.site.hosts.at(kServers + 1 + 2 * kClients + 4 + i);
    cluster.add_node(n);
    cluster.add_nsd_server(n);
    rep_srv.push_back(n);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    rep_devices.push_back(std::make_unique<storage::RateDevice>(
        sim, 2 * GiB, BytesPerSec(200e6), 0.5e-3,
        "repdev" + std::to_string(i)));
    rep_nsd_ids.push_back(cluster.create_nsd(
        "repnsd" + std::to_string(i), rep_devices.back().get(), rep_srv[i],
        rep_srv[(i + 1) % 3], static_cast<std::uint32_t>(i)));
  }
  gpfs::FileSystem& repfs =
      cluster.create_filesystem("rep", rep_nsd_ids, 1 * MiB, farm.manager);

  const auto rep_pair = w.mount(
      {kServers + 1 + 2 * kClients + 2, kServers + 1 + 2 * kClients + 3},
      "rep");
  gpfs::Client* repw = rep_pair[0];
  gpfs::Client* repr = rep_pair[1];

  // Episode state; must outlive the callbacks that fill it in.
  std::optional<gpfs::Fh> vfh, dfh, pfh, rwfh, rrfh;
  Landed rread;
  std::optional<Status> rsync2;
  constexpr Bytes kRepBytes = 8 * MiB;

  // Replication episode, both phases: a 2-copy file is written and
  // committed while everything is healthy, then read back cold and
  // overwritten during the window where (chaos phase only) BOTH serving
  // nodes of one copy are dark — reads must fail over to the surviving
  // replica and the write path must re-anchor + mark the dark copy
  // divergent instead of stalling. The run-end fsck (after
  // reconcile_replicas) checks nothing stayed stale.
  w.open_after(0.15, repw, "/rep", gpfs::OpenFlags::create_replicated(2),
               rwfh, [&] {
                 w.commit_async(repw, *rwfh, 0, kRepBytes, 0, 0.0, [](Status s) {
                   bench::must(s, "replicated fsync failed");
                 });
               });
  w.open_after(0.7, repr, "/rep", gpfs::OpenFlags::ro(), rrfh, [&] {
    retry<Result<Bytes>>(
        sim, 10, 0.3,
        [&](auto done) { repr->read(*rrfh, 0, kRepBytes, done); },
        w.land(rread));
  });
  sim.after(0.9, [&] {
    w.commit_async(repw, *rwfh, 0, kRepBytes, 30, 0.3,
                   [&](Status s) { rsync2 = s; });
  });

  fault::FaultInjector& inject = w.inject;
  if (inject_faults) {
    // Server 0: LAN link flaps between host and switch.
    inject.flap_link(farm.server_nodes[0], w.site.sw, /*mttf=*/1.5,
                     /*mttr=*/0.2, /*start=*/0.1, /*until=*/8.0);
    // Server 1: fail-slow, 50x request CPU for 1.5 s.
    inject.schedule_fail_slow(0.2, *cluster.server_on(farm.server_nodes[1]),
                              50.0, 1.5);
    // Server 2: blackholed for 1.5 s.
    inject.schedule_blackhole(0.5, farm.server_nodes[2], 1.5);
    // Replication episode: both serving nodes of repfs nsd0 go dark for
    // a window that outlasts the full 4-attempt retry horizon (~2.1 s
    // at the 0.5 s deadline) of the episode's 0.7 s read and 0.9 s
    // overwrite — primary->backup failover is not enough, so reads must
    // redirect to the surviving replica and write propagation to the
    // dark copies terminally fails (marking them divergent).
    inject.schedule_blackhole(0.55, rep_srv[0], 2.65);
    inject.schedule_blackhole(0.55, rep_srv[1], 2.65);
    // Server 3: crash/restart churn — each outage fails I/O over to the
    // backup server and the restart notification resets its pooled
    // connections and (via watch_cluster) any lapsed incarnations.
    inject.churn_node(farm.server_nodes[3], /*mttf=*/2.0, /*mttr=*/0.25,
                      /*start=*/0.3, /*until=*/8.0);
    // Manager node crashes mid-soak: successor election, token-state
    // rebuild and manager-epoch fencing run under full fault load while
    // the dirty-writer episode is still unresolved.  The crash lands
    // after the measured write job drains so goodput reflects data-path
    // chaos, not the metadata takeover stall; two probe stats from
    // distinct clients supply the two-reporter suspicion quorum.
    inject.schedule_crash_manager(4.5, *farm.fs, 1.0);
    sim.after(4.55, [&] {
      clients[0]->stat("/soak", [](Result<gpfs::StatInfo>) {});
      clients[1]->stat("/soak", [](Result<gpfs::StatInfo>) {});
    });
    // An in-flight commit rides across the takeover: the write-behind
    // flush spans the crash, bounces off the recovering write gate
    // (opening the client's NSD circuit breaker), and completes once
    // the rebuilt manager resumes.
    w.open_after(4.3, clients[1], "/tko", gpfs::OpenFlags::create_rw(), pfh,
                 [&] {
                   w.commit_async(clients[1], *pfh, 0, 64 * MiB, 30, 0.2,
                                  [](Status s) {
                                    bench::must(s, "in-flight commit across "
                                                   "takeover failed");
                                  });
                 });
    // Dirty-writer episode: the victim stages dirty, never-fsynced
    // write-behind and goes mute; the takeover marks it a lapsed
    // suspect, dsurv's overlapping write completes once the rebuilt
    // tables drop the mute holder, the sweep expels it (journal
    // replay), and its healed late flush — still stamped with the
    // deposed manager epoch — is fenced at the NSD servers.
    w.open_after(0.05, victim, "/dirty", gpfs::OpenFlags::create_rw(), vfh,
                 [&] { victim->write(*vfh, 0, 8 * MiB, [](Result<Bytes>) {}); });
    inject.schedule_blackhole(0.12, victim->node(), 6.0);
    w.open_after(0.3, dsurv, "/dirty", gpfs::OpenFlags::rw(), dfh, [&] {
      retry<Result<Bytes>>(
          sim, 2, 0.0, [&](auto done) { dsurv->write(*dfh, 0, 4 * MiB, done); },
          [&](Result<Bytes> wr) {
            bench::must(wr, "episode takeover write failed");
            dsurv->fsync(*dfh, [](Status) {});
          });
    });
  }

  // The measured MPI-IO job: `tasks` write or read back /soak.
  auto mpiio = [&](const std::vector<gpfs::Client*>& tasks, bool write) {
    workload::MpiIoJob job(tasks, "/soak", bench::kUser,
                           {.block = 16 * MiB, .transfer = 1 * MiB,
                            .per_task = kPerTask, .write = write});
    return bench::must(bench::await(sim, &job, &workload::MpiIoJob::run),
                       write ? "write phase failed" : "read-back failed");
  };
  const workload::MpiIoResult wres = mpiio(clients, /*write=*/true);

  // Orderly writer unmount before the measured read-back, in BOTH
  // phases. Without this the two phases measure different things: the
  // baseline's readers paid a token-revocation round against every
  // writer's surviving rw token, while the chaos run's manager takeover
  // had already wiped the token tables — handing its readers
  // revocation-free grants and making the chaos read rate *beat* the
  // fault-free one. Unmounting the writers releases their tokens the
  // same way in both phases, so the read windows are comparable.
  std::size_t writers_down = 0;
  for (gpfs::Client* c : clients) {
    cluster.unmount_flush(c, [&] { ++writers_down; });
  }
  sim.run();
  MGFS_ASSERT(writers_down == kClients, "writer unmount did not complete");

  // Start the measured read-back at the same absolute sim time in both
  // phases: lease-renewal timers are clocked off mount time, so a
  // window that opens at t=2 s in the baseline but t=10 s after the
  // chaos drain would catch a different number of renewal rounds —
  // a percent-level skew between two otherwise identical phases.
  constexpr sim::Time kMeasureAt = 15.0;
  MGFS_ASSERT(sim.now() < kMeasureAt, "fault drain ran past the read phase");
  sim.run_until(kMeasureAt);

  // The fault drain can outlast an idle lease; a sacrificial open per
  // reader surfaces the lapse (stale -> rejoin) before the measured
  // read-back, so the timed phase starts from valid leases.
  for (gpfs::Client* c : readers) {
    c->open("/soak", bench::kUser, gpfs::OpenFlags::ro(),
            [c](Result<gpfs::Fh> r) {
              if (r.ok()) c->close(*r, [](Status) {});
            });
  }
  sim.run();

  const workload::MpiIoResult rres = mpiio(readers, /*write=*/false);

  // Replica counters cover the data movers of both file systems: the
  // I/O fleet plus the replication-episode pair.
  std::vector<gpfs::Client*> movers(fleet.begin(),
                                    fleet.begin() + 2 * kClients);
  movers.insert(movers.end(), rep_pair.begin(), rep_pair.end());

  // Replication episode wrap-up: every byte of the 2-copy file was read
  // back despite the dual blackhole, the overwrite committed, and after
  // reconciliation (the heal re-copies divergent replicas) nothing in
  // the replica tables is stale.
  MGFS_ASSERT(rread.moved(kRepBytes), "replicated read-back incomplete");
  MGFS_ASSERT(rsync2.has_value() && rsync2->ok(),
              "replicated overwrite never committed");
  // Cluster-wide op latency during recovery: fold every mounted
  // client's histogram (same bin geometry) into one distribution.
  Histogram rec(0.01, 2000, "recovery_ops");
  for (gpfs::Client* c : fleet) rec.merge(c->recovery_op_latency());

  gpfs::FileSystem& fs = *farm.fs;
  // Sub-second latencies need more than one decimal. (A braced list
  // evaluates in order: divergences are read before reconciliation.)
  RunResult out{.write_MBps = wres.aggregate_MBps(),
                .read_MBps = rres.aggregate_MBps(),
                .bytes_written = wres.bytes,
                .bytes_read = rres.bytes,
                .mmpmon = clients[0]->mmpmon()};
  out.metrics = {
      {"retries", sum(clients, &gpfs::Client::rpc_retries)},
      {"timeouts", sum(clients, &gpfs::Client::rpc_timeouts)},
      {"breaker_opens", sum(clients, &gpfs::Client::breaker_opens)},
      {"failovers", sum(clients, &gpfs::Client::nsd_failovers)},
      {"lease_renewals", fs.lease_renewals()},
      {"expels", fs.expels()},
      {"journal_replays", fs.journal_records_replayed()},
      {"fenced_writes", fs.fenced_writes()},
      {"manager_takeovers", fs.manager_takeovers()},
      {"manager_reroutes", sum(fleet, &gpfs::Client::mgr_reroutes)},
      {"stale_mgr_fenced", fs.stale_manager_fenced()},
      {"rebuild_rpcs", fs.rebuild_rpcs()},
      {"early_expels", fs.early_expels()},
      {"overlap_writes_admitted", fs.overlap_writes_admitted()},
      {"recovery_probes", sum(fleet, &gpfs::Client::recovery_probes)},
      {"recovery_ops", rec.count()},
      {"replica_reads", sum(movers, &gpfs::Client::replica_reads)},
      {"replica_failovers", sum(movers, &gpfs::Client::replica_failovers)},
      {"replica_divergences", repfs.replica_divergences()},
      {"replicas_reconciled", repfs.reconcile_replicas()},
      {"takeover_to_first_grant_s", fs.takeover_to_first_grant_s(), 4},
      {"recovery_op_p50_s", rec.quantile(0.5), 4},
      {"recovery_op_p99_s", rec.quantile(0.99), 4}};
  MGFS_ASSERT(fs.fsck().clean(), "chaos soak left metadata dirty");
  MGFS_ASSERT(repfs.fsck().clean(), "replication episode left metadata dirty");
  if (inject_faults) std::cout << "\n" << inject.report();
  return out;
}

bool run_soak(const std::string& json_path) {
  auto phase = [](const char* title, bool inject_faults) {
    std::cout << title;
    RunResult r = run_workload(inject_faults);
    std::printf("  write %.1f MB/s, read %.1f MB/s\n", r.write_MBps,
                r.read_MBps);
    return r;
  };
  const RunResult base = phase("\nPhase A: fault-free baseline\n", false);
  const RunResult c = phase(
      "\nPhase B: chaos (link flaps + fail-slow + blackhole)\n", true);
  auto n = [&c](const char* key) { return ull(c[key]); };
  std::printf("  retries %llu, timeouts %llu, breaker opens %llu, "
              "failovers %llu\n",
              n("retries"), n("timeouts"), n("breaker_opens"), n("failovers"));
  std::printf("  expels %llu, journal replays %llu, fenced writes %llu\n",
              n("expels"), n("journal_replays"), n("fenced_writes"));
  std::printf("  manager takeovers %llu, reroutes %llu, stale-mgr fenced "
              "%llu\n",
              n("manager_takeovers"), n("manager_reroutes"),
              n("stale_mgr_fenced"));
  std::printf("  recovery: first grant +%.3f s after takeover, rebuild rpcs "
              "%llu, early expels %llu, overlap writes %llu\n",
              c["takeover_to_first_grant_s"], n("rebuild_rpcs"),
              n("early_expels"), n("overlap_writes_admitted"));
  std::printf("  recovery ops %llu (p50 %.3f s, p99 %.3f s), probes %llu\n",
              n("recovery_ops"), c["recovery_op_p50_s"],
              c["recovery_op_p99_s"], n("recovery_probes"));
  std::printf("  replicas: reads %llu, failovers %llu, divergences %llu, "
              "reconciled %llu\n",
              n("replica_reads"), n("replica_failovers"),
              n("replica_divergences"), n("replicas_reconciled"));
  std::cout << "\nclient 0 mmpmon (chaos run):\n" << c.mmpmon;

  const Bytes expected = kClients * kPerTask;
  Checks check;
  check(c.bytes_written == expected && c.bytes_read == expected,
        "all bytes written and read back (zero data loss)");
  check(c.write_MBps >= 0.5 * base.write_MBps,
        "chaos write goodput >= 50% of fault-free");
  check(c.read_MBps >= 0.5 * base.read_MBps,
        "chaos read goodput >= 50% of fault-free");
  // Guards the measurement itself: both phases unmount the writers
  // before the timed read-back, so the chaos read can no longer beat
  // the fault-free one by skipping the token-revocation rounds the
  // baseline's readers used to pay (the old inverted report).
  check(c.read_MBps <= 1.05 * base.read_MBps,
        "read windows comparable: chaos read within 5% of baseline");
  check(c["timeouts"] > 0, "RPC deadlines actually expired");
  check(c["retries"] > 0, "retry policy actually engaged");
  check(c["breaker_opens"] > 0, "circuit breaker actually opened");
  check(c["expels"] >= 1, "mute dirty writer expelled");
  check(c["journal_replays"] >= 1, "metadata journal replayed");
  check(c["fenced_writes"] >= 1, "late dirty flush fenced");
  check(c["manager_takeovers"] >= 1, "manager takeover completed");
  check(c["stale_mgr_fenced"] >= 1, "deposed-manager write fenced");
  // 2 lease periods (lease_duration = 3.0 in run_workload).
  check(c["takeover_to_first_grant_s"] >= 0.0 &&
            c["takeover_to_first_grant_s"] <= 6.0,
        "first post-takeover grant within 2 lease periods");
  check(c["rebuild_rpcs"] >= 1 &&
            c["rebuild_rpcs"] <= 10 * c["manager_takeovers"],
        "rebuild queried each client at most once (O(clients) RPCs)");
  check(c["early_expels"] >= 1,
        "suspect confirmed dead by probe quorum (early expel)");
  check(c["recovery_ops"] >= 1, "op latency during recovery window recorded");
  check(c["replica_reads"] >= 1,
        "reads served from a replica while both serving nodes were dark");
  check(c["replica_failovers"] >= 1, "replica failover actually engaged");
  check(c["replica_divergences"] >= 1,
        "writer marked the unreachable copy divergent");
  check(c["replicas_reconciled"] >= 1 &&
            c["replicas_reconciled"] >= c["replica_divergences"],
        "every divergent copy reconciled after the heal");

  if (!json_path.empty()) {
    std::vector<JsonField> fields = {{"write_MBps_base", base.write_MBps, 1},
                                     {"read_MBps_base", base.read_MBps, 1},
                                     {"write_MBps_chaos", c.write_MBps, 1},
                                     {"read_MBps_chaos", c.read_MBps, 1}};
    fields.insert(fields.end(), c.metrics.begin(), c.metrics.end());
    write_json(json_path, "chaos_soak", fields, check.ok);
  }
  return check.ok;
}

bool run_crash_dirty_writer(const std::string& /*json_path*/) {
  World w({.hosts = 6, .cfg = kLeaseDrill, .servers = 2, .nsds = 4,
           .mounts = {4, 5}});
  sim::Simulator& sim = w.sim;
  gpfs::Client* victim = w.clients[0];
  gpfs::Client* survivor = w.clients[1];

  gpfs::Fh vfh = w.open(victim, "/shared", gpfs::OpenFlags::create_rw());
  gpfs::Fh vpriv = w.open(victim, "/private", gpfs::OpenFlags::create_rw());
  gpfs::Fh sfh = w.open(survivor, "/shared", gpfs::OpenFlags::rw());

  // Victim stages dirty write-behind over the shared and a private
  // region, then goes mute before the flush drains or fsync commits.
  victim->write(vfh, 0, 8 * MiB, [](Result<Bytes>) {});
  victim->write(vpriv, 0, 4 * MiB, [](Result<Bytes>) {});
  sim.run_until(sim.now() + 0.02);
  const double crash_at = sim.now();
  w.inject.schedule_blackhole(crash_at, victim->node(), 2.5);

  // Survivor writes over the shared range: unanswered revoke -> suspect
  // -> lease runs out -> expel -> journal replay -> grant.
  Landed sw;
  sim.after(0.05, [&] { survivor->write(sfh, 0, 4 * MiB, w.land(sw)); });
  sim.run();

  // After the heal: the victim's late flush was fenced, it rejoined
  // under a fresh epoch, and can finish its job cleanly.
  auto finish = [&] {
    return bench::await(sim, victim, &gpfs::Client::write, vfh, 8 * MiB,
                        1 * MiB);
  };
  Result<Bytes> vw3 = finish();
  if (!vw3.ok()) vw3 = finish();  // the first op may surface the lapse
  const Status vsync = bench::await(sim, victim, &gpfs::Client::fsync, vfh);

  const gpfs::FsckReport fsck = w.farm.fs->fsck();
  const double recovery_s = sw.at - crash_at;
  const std::uint64_t nsd_fenced = w.nsd_fenced_writes();

  std::printf("  survivor takeover:   %.2f s after crash (budget %.2f s)\n",
              recovery_s, kLeaseBudget);
  std::printf("  manager: %s\n", w.farm.fs->stats().c_str());
  std::printf("  NSD fenced writes:   %llu\n", ull(nsd_fenced));
  std::printf("  fsck: referenced %llu allocated %llu orphaned %llu "
              "duplicate %llu dangling %llu uncommitted %llu\n",
              ull(fsck.referenced_blocks), ull(fsck.allocated_blocks),
              ull(fsck.orphaned_blocks), ull(fsck.duplicate_refs),
              ull(fsck.dangling_refs), ull(fsck.uncommitted_records));

  Checks check;
  check(sw.ok(), "survivor write completed");
  check(recovery_s <= kLeaseBudget,
        "survivor takeover within 3 lease periods");
  check(w.farm.fs->expels() >= 1, "dead incarnation expelled");
  check(w.farm.fs->journal_records_replayed() >= 1,
        "metadata journal replayed");
  check(w.farm.fs->fenced_writes() >= 1 && nsd_fenced >= 1,
        "late write fenced by lease epoch");
  check(victim->lease_epoch() > 0 && vw3.ok() && vsync.ok(),
        "victim rejoined under a fresh epoch and finished");
  check(fsck.clean(), "fsck clean after replay");
  return check.ok;
}

bool run_manager_crash(const std::string& /*json_path*/) {
  // hosts[2] is the manager (dedicated non-NSD member); clients on 3..5.
  World w({.hosts = 6, .cfg = kLeaseDrill, .servers = 2, .nsds = 4,
           .mounts = {3, 4, 5}});
  sim::Simulator& sim = w.sim;
  gpfs::FileSystem& fs = *w.farm.fs;
  gpfs::Client* writer = w.clients[0];
  gpfs::Client* dead = w.clients[1];
  gpfs::Client* mute = w.clients[2];

  gpfs::Fh wfh = w.open(writer, "/job", gpfs::OpenFlags::create_rw());
  gpfs::Fh dfh = w.open(dead, "/dead", gpfs::OpenFlags::create_rw());
  gpfs::Fh mfh = w.open(mute, "/mute", gpfs::OpenFlags::create_rw());

  // Committed baseline for the writer; dirty, never-fsynced data on
  // both casualties (uncommitted journal records, rw tokens).
  w.commit(writer, wfh, 0, 4 * MiB, "baseline commit failed");
  // A second committed region whose blocks stay allocated and whose rw
  // token stays held: re-dirtying it later needs no metadata RPC, so
  // its write-behind flush drives straight at the NSD write gate across
  // the takeover — the overlap-window probe.
  w.commit(writer, wfh, 16 * MiB, 48 * MiB, "overlap stage commit failed");
  dead->write(dfh, 0, 4 * MiB, [](Result<Bytes>) {});
  mute->write(mfh, 0, 4 * MiB, [](Result<Bytes>) {});
  sim.run_until(sim.now() + 0.02);  // stage dirty pages + journal records

  const double t0 = sim.now();
  const net::NodeId old_mgr = fs.manager_node();
  w.inject.schedule_node_crash(t0, dead->node(), 5.0);
  w.inject.schedule_blackhole(t0, mute->node(), 2.5);
  w.inject.schedule_crash_manager(t0 + 0.05, fs, 0.8);

  // In-flight I/O across the takeover: the write needs fresh
  // allocations, so its metadata RPC finds the dead manager, drives the
  // election, then reroutes to the successor and completes.
  Landed ww;
  sim.after(t0 + 0.1 - sim.now(),
            [&] { writer->write(wfh, 4 * MiB, 8 * MiB, w.land(ww)); });
  // Re-dirty the committed region the instant the successor starts the
  // rebuild (the poll cadence is finer than a network hop, so the
  // writer's assert query is still on the wire): the write completes
  // from the page pool (token held, blocks already allocated — no
  // metadata RPC), the assertion the writer sends back keeps its rw
  // token clipped to exactly these unflushed pages, and the redriven
  // blocks bounce off the recovering write gate until that assertion
  // installs — then land while the mute straggler is still being
  // queried: a reasserted client's write completing before the global
  // rebuild finishes.
  std::optional<Result<Bytes>> wredirty;
  std::function<void()> redirty_poll = [&] {
    if (fs.recovering()) {
      writer->write(wfh, 16 * MiB, 8 * MiB,
                    [&](Result<Bytes> r) { wredirty = r; });
      return;
    }
    if (sim.now() < t0 + 3.0) sim.after(0.00005, redirty_poll);
  };
  sim.after(t0 - sim.now(), redirty_poll);
  // A later fsync commits the writer and, as a manager op, drives the
  // lease sweep that expels the still-mute partitioned client.
  std::optional<Status> wsync;
  sim.after(t0 + 1.2 - sim.now(), [&] {
    writer->fsync(wfh, [&](Status s) { wsync = s; });
  });
  sim.run();

  const gpfs::FsckReport fsck = fs.fsck();
  const double takeover_s = fs.last_takeover_at() - t0;
  const std::uint64_t nsd_fenced = w.nsd_fenced_writes();

  std::printf("  takeover: node %u -> node %u, epoch %llu, %.2f s after "
              "crash (budget %.2f s)\n",
              old_mgr.v, fs.manager_node().v, ull(fs.manager_epoch()),
              takeover_s, kLeaseBudget);
  std::printf("  manager: %s\n", fs.stats().c_str());
  std::printf("  first grant: +%.3f s after takeover; rebuild rpcs %llu, "
              "overlap writes %llu\n",
              fs.takeover_to_first_grant_s(), ull(fs.rebuild_rpcs()),
              ull(fs.overlap_writes_admitted()));
  std::printf("  NSD fenced writes:   %llu\n", ull(nsd_fenced));

  Checks check;
  check(fs.manager_takeovers() == 1, "exactly one takeover");
  check(!(fs.manager_node() == old_mgr), "successor elected");
  check(fs.last_takeover_at() >= t0 && takeover_s <= kLeaseBudget,
        "takeover within 3 lease periods");
  check(ww.ok() && ww.at - t0 <= kLeaseBudget,
        "in-flight write rerouted and completed");
  check(wsync.has_value() && wsync->ok(), "writer committed after takeover");
  check(fs.assertions_rebuilt() >= 1,
        "token state rebuilt from client assertions");
  check(fs.expels() >= 2, "dead and mute dirty writers expelled");
  check(fs.journal_records_replayed() >= 1, "metadata journal replayed");
  check(fs.stale_manager_fenced() >= 1 && nsd_fenced >= 1,
        "deposed-epoch flush fenced at the NSD servers");
  check(writer->mgr_takeovers() >= 1 && writer->mgr_reroutes() >= 1,
        "client adopted the successor's view");
  check(fs.rebuild_rpcs() == 3,
        "rebuild queried each client exactly once (O(clients) RPCs)");
  check(fs.overlap_writes_admitted() >= 1 && wredirty.has_value() &&
            wredirty->ok(),
        "reasserted writer's flush landed mid-rebuild (overlap window)");
  check(fs.takeover_to_first_grant_s() >= 0.0 &&
            fs.takeover_to_first_grant_s() <=
                2.0 * kLeaseDrill.lease_duration,
        "first grant within 2 lease periods of takeover");
  check(fsck.clean(), "fsck clean after takeover");
  return check.ok;
}

bool run_shard_crash(const std::string& /*json_path*/) {
  // hosts: 0-1 NSD servers, 2 = shard-0 manager (the farm's lease
  // home), 3-5 = shard 1-3 manager seats, 6-17 = three writers per
  // shard (three, because deposing a dark-but-up manager takes a
  // quorum of three distinct accusers — one stuck client can't).
  gpfs::ClusterConfig cfg = kLeaseDrill;
  cfg.meta_shards = 4;
  World w({.hosts = 18, .cfg = cfg, .servers = 2, .nsds = 4});
  sim::Simulator& sim = w.sim;
  gpfs::FileSystem& fs = *w.farm.fs;

  std::vector<net::NodeId> seats{w.farm.manager};
  for (std::size_t h = 3; h <= 5; ++h) {
    w.cluster->add_node(w.site.hosts.at(h));
    seats.push_back(w.site.hosts.at(h));
  }
  w.cluster->set_shard_managers(fs, seats);

  struct Writer {
    gpfs::Client* c = nullptr;
    gpfs::Fh fh{};
    std::uint32_t shard = 0;
    std::uint64_t cycles = 0;         // committed write+fsync cycles
    std::uint64_t during_outage = 0;  // ...landed before the takeover
  };
  std::vector<Writer> writers(12);
  for (std::uint32_t k = 0; k < writers.size(); ++k) {
    writers[k].c = w.mount({6 + k})[0];
    writers[k].shard = k % 4;
  }

  // Pin each writer to its token domain: create files until one's
  // inode hashes there (inos are sequential, so a few tries suffice).
  for (std::uint32_t k = 0; k < writers.size(); ++k) {
    Writer& wr = writers[k];
    for (int j = 0;; ++j) {
      MGFS_ASSERT(j < 16, "no inode landed in shard");
      const std::string p =
          "/w" + std::to_string(k) + "_" + std::to_string(j);
      gpfs::Fh fh = w.open(wr.c, p, gpfs::OpenFlags::create_rw());
      const gpfs::StatInfo st = bench::must(
          bench::await(sim, wr.c, &gpfs::Client::stat, p), "setup stat failed");
      if (fs.shard_of(st.ino) == wr.shard) {
        wr.fh = fh;
        break;
      }
      wr.c->close(fh, [](Status) {});
      sim.run();
    }
  }

  const std::uint32_t victim = 2;
  const net::NodeId old_mgr = fs.manager_node(victim);
  const double t0 = sim.now();
  const double t_end = t0 + 4.0;
  // Blackhole, not crash: the dead manager keeps accepting traffic and
  // answers nothing, so detection must come from RPC deadlines — the
  // slow path, and the real outage window the live shards must ride
  // through. (A crash gives everyone connection resets and the
  // takeover is near-instant.)
  w.inject.schedule_blackhole(t0, old_mgr, 2.5);

  // Each writer appends one block per cycle — a token acquire, an
  // allocation and a journal commit against its own shard, nothing
  // cross-domain — until the drill window closes. Ops that fail while
  // the victim's manager is dark are redriven after a beat, the way a
  // VFS layer retries EAGAIN: the acceptance question is whether the
  // *domain* comes back, not whether one RPC got lucky.
  std::function<void(std::uint32_t)> cycle = [&](std::uint32_t k) {
    Writer& wr = writers[k];
    if (sim.now() >= t_end) return;
    auto redrive = [&, k] { sim.after(0.05, [&, k] { cycle(k); }); };
    wr.c->write(wr.fh, Bytes(wr.cycles * 64 * KiB), 64 * KiB,
                [&, k, redrive](Result<Bytes> r) {
                  if (!r.ok()) return redrive();
                  writers[k].c->fsync(writers[k].fh, [&, k, redrive](Status s) {
                    if (!s.ok()) return redrive();
                    Writer& w2 = writers[k];
                    ++w2.cycles;
                    if (sim.now() >= t0 &&
                        (fs.shard_takeovers(victim) == 0 ||
                         fs.shard_recovering(victim))) {
                      ++w2.during_outage;
                    }
                    cycle(k);
                  });
                });
  };
  for (std::uint32_t k = 0; k < writers.size(); ++k) cycle(k);
  sim.run();

  // Per-domain totals: committed cycles, and cycles that landed while
  // the victim's manager was dark or its takeover still rebuilding.
  std::uint64_t shard_cycles[4] = {0, 0, 0, 0};
  std::uint64_t shard_outage[4] = {0, 0, 0, 0};
  for (const Writer& wr : writers) {
    shard_cycles[wr.shard] += wr.cycles;
    shard_outage[wr.shard] += wr.during_outage;
  }

  const gpfs::FsckReport fsck = fs.fsck();
  const double t1g = fs.takeover_to_first_grant_s();
  std::printf("  victim shard %u: node %u -> node %u, epoch %llu\n", victim,
              old_mgr.v, fs.manager_node(victim).v,
              ull(fs.manager_epoch(victim)));
  std::printf("  first grant: +%.3f s after takeover (budget %.2f s)\n",
              t1g, 2.0 * kLeaseDrill.lease_duration);
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::printf("  shard %u: %llu cycles committed, %llu during outage\n", s,
                ull(shard_cycles[s]), ull(shard_outage[s]));
  }
  std::printf("  manager: %s\n", fs.stats().c_str());

  Checks check;
  check(fs.manager_takeovers() == 1 && fs.shard_takeovers(victim) == 1,
        "exactly one takeover, on the victim shard");
  check(!(fs.manager_node(victim) == old_mgr),
        "victim shard's successor elected");
  check(fs.manager_epoch(victim) == 2 && fs.manager_epoch(0) == 1 &&
            fs.manager_epoch(1) == 1 && fs.manager_epoch(3) == 1,
        "only the victim shard changed epoch");
  check(t1g >= 0.0 && t1g <= 2.0 * kLeaseDrill.lease_duration,
        "victim shard granting again within 2 lease periods");
  check(shard_outage[0] >= 1 && shard_outage[1] >= 1 && shard_outage[3] >= 1,
        "live shards kept committing through the outage");
  check(shard_outage[victim] == 0,
        "victim domain stalled until its takeover (no torn admits)");
  check(shard_cycles[victim] >= 1, "victim writers resumed after takeover");
  check(fs.expels() == 0,
        "no expels: batched heartbeat to shard 0 kept every lease alive");
  check(fsck.clean(), "fsck clean across all journal slices");
  return check.ok;
}

bool run_site_outage(const std::string& json_path) {
  World w;
  sim::Simulator& sim = w.sim;
  // Narrow transcontinental circuit: 0.3 Gb/s shared, 25 ms one way —
  // a 1 MiB TCP window caps each stream at ~20 MB/s, so WAN-window
  // rates sit far below what the edge LAN can carry.
  net::Site home = net::add_site(w.net, "home", 4, gbps(1.0));
  w.site = net::add_site(w.net, "edge", 9, gbps(1.0));
  const net::Site& edge = w.site;
  w.net.connect(home.sw, edge.sw, gbps(0.3), 25e-3, net::kEtherEfficiency,
                "wan");

  gpfs::ClusterConfig ccfg;
  ccfg.name = "deisa";
  // Deadline sized for the WAN: a multi-block read run over the narrow
  // circuit legitimately takes ~1 s, and a deadline below that would
  // open breakers against healthy home servers during the baseline.
  ccfg.client.rpc_deadline = 2.0;
  w.cluster = std::make_unique<gpfs::Cluster>(sim, w.net, ccfg, Rng(42));
  gpfs::Cluster& cluster = *w.cluster;

  std::vector<net::NodeId> home_srv, edge_srv;
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.add_node(home.hosts[i]);
    cluster.add_nsd_server(home.hosts[i]);
    home_srv.push_back(home.hosts[i]);
    cluster.add_node(edge.hosts[i]);
    cluster.add_nsd_server(edge.hosts[i]);
    edge_srv.push_back(edge.hosts[i]);
  }
  net::NodeId manager = edge.hosts[4];  // survives the home blackout
  cluster.add_node(manager);

  // Four NSDs behind `srv` (primary i, backup i+1), failure domain
  // `site`, named <prefix>nsd<i> over devices <prefix>dev<i>.
  std::vector<std::unique_ptr<storage::BlockDevice>> devices;
  std::vector<std::uint32_t> homefs_nsds, rep_nsds;
  auto add_nsds = [&](const std::string& prefix,
                      const std::vector<net::NodeId>& srv, std::uint32_t site,
                      std::vector<std::uint32_t>& ids) {
    for (std::size_t i = 0; i < 4; ++i) {
      const std::string n = std::to_string(i);
      devices.push_back(std::make_unique<storage::RateDevice>(
          sim, 4 * GiB, BytesPerSec(200e6), 0.5e-3, prefix + "dev" + n));
      ids.push_back(cluster.create_nsd(prefix + "nsd" + n,
                                       devices.back().get(), srv[i],
                                       srv[(i + 1) % 4], site));
    }
  };
  // homefs: 4 home NSDs, single-copy files — the WAN baseline. repfs: 4
  // more home NSDs (site 0) + 4 edge NSDs (site 1); 2-copy files get
  // one copy per site.
  add_nsds("h", home_srv, 0, homefs_nsds);
  add_nsds("rh", home_srv, 0, rep_nsds);
  add_nsds("re", edge_srv, 1, rep_nsds);
  gpfs::FileSystem& homefs =
      cluster.create_filesystem("homefs", homefs_nsds, 1 * MiB, manager);
  gpfs::FileSystem& repfs =
      cluster.create_filesystem("repfs", rep_nsds, 1 * MiB, manager);

  // Edge clients: a WAN-baseline reader, the replicated writer, a cold
  // reader for the healthy-phase rate, and a second cold reader that
  // only reads during the blackout.
  gpfs::Client* wanreader = w.mount({5}, "homefs")[0];
  gpfs::Client* repwriter = w.mount({6}, "repfs")[0];
  gpfs::Client* cold1 = w.mount({7}, "repfs")[0];
  gpfs::Client* cold2 = w.mount({8}, "repfs")[0];

  w.watch();

  constexpr Bytes kFile = 32 * MiB;
  bench::seed_file(homefs, "/far", kFile);

  // Timed sequential read of the whole file; returns MB/s.
  auto timed_read = [&](gpfs::Client* c, gpfs::Fh fh) {
    const double t0 = sim.now();
    Landed r;
    c->read(fh, 0, kFile, w.land(r));
    sim.run();
    MGFS_ASSERT(r.moved(kFile), "timed read incomplete");
    return (kFile / 1e6) / std::max(1e-9, r.at - t0);
  };

  // WAN baseline: cold edge read of the unreplicated home file.
  gpfs::Fh farfh = w.open(wanreader, "/far", gpfs::OpenFlags::ro());
  const double wan_MBps = timed_read(wanreader, farfh);

  // Replicated file: written once, committed; copies land on both sites.
  gpfs::Fh wfh =
      w.open(repwriter, "/data", gpfs::OpenFlags::create_replicated(2));
  w.commit(repwriter, wfh, 0, kFile, "replicated commit failed");

  // Healthy-phase cold-site rate: nearest-replica reads serve from the
  // edge copies at local rates — the with-replicas column.
  gpfs::Fh c1fh = w.open(cold1, "/data", gpfs::OpenFlags::ro());
  const double local_MBps = timed_read(cold1, c1fh);

  // Open the blackout-phase reader while the cluster is still healthy
  // (a synchronous open would run straight through the outage events).
  gpfs::Fh c2fh = w.open(cold2, "/data", gpfs::OpenFlags::ro());

  // Blackout: every home serving node goes dark; the allocator also
  // marks the home NSDs down so writes placed during the outage route
  // to the surviving site.
  const double outage_at = sim.now();
  // Long enough that the writer's replica-propagation attempts to the
  // dark home copies exhaust their retries (4 attempts at the WAN
  // deadline) and mark divergence while the site is still down.
  const sim::Time kOutage = 12.0;
  std::vector<net::NodeId> dark(home_srv.begin(), home_srv.end());
  w.inject.schedule_site_outage(outage_at, dark, kOutage);
  // NSD ids inside a file system are fs-local (0..n-1), not the
  // cluster-global registration ids.
  sim.after(0.0, [&] {
    for (std::uint32_t id = 0; id < rep_nsds.size(); ++id) {
      if (repfs.nsd(id).site == 0) repfs.set_nsd_down(id, true);
    }
  });

  // During the blackout: a fresh cold reader gets every byte from the
  // local replicas, and the writer's overwrite keeps committing
  // against the surviving copies, marking the unreachable home copies
  // divergent instead of stalling. Issued via sim.after so they start
  // inside the blackout window rather than before it.
  Landed outage_read;
  std::optional<Status> osync;
  sim.after(0.1, [&] {
    cold2->read(c2fh, 0, kFile, w.land(outage_read));
    w.commit_async(repwriter, wfh, 0, kFile, 40, 0.3,
                   [&](Status s) { osync = s; });
  });
  sim.run();

  // Heal + re-protect: home NSDs come back (blackhole self-heals at
  // outage_at + kOutage inside the run above), the allocator readmits
  // them, and reconciliation re-copies every divergent replica.
  for (std::uint32_t id = 0; id < rep_nsds.size(); ++id) {
    repfs.set_nsd_down(id, false);
  }
  const std::uint64_t reconciled = repfs.reconcile_replicas();
  const gpfs::FsckReport rep_fsck = repfs.fsck();
  const gpfs::FsckReport home_fsck = homefs.fsck();
  const std::uint64_t rep_reads = cold1->replica_reads() +
                                  cold2->replica_reads() +
                                  repwriter->replica_reads();

  std::printf("  WAN cold read:        %.1f MB/s (unreplicated, over the "
              "circuit)\n", wan_MBps);
  std::printf("  local replica read:   %.1f MB/s (%.1fx)\n", local_MBps,
              local_MBps / std::max(1e-9, wan_MBps));
  std::printf("  outage read:          %s, finished %+.2f s into the "
              "blackout\n",
              outage_read.ok() ? "complete" : "FAILED",
              outage_read.at - outage_at);
  std::printf("  divergences %llu, reconciled %llu, replica reads %llu\n",
              ull(repfs.replica_divergences()), ull(reconciled),
              ull(rep_reads));
  std::printf("  manager: %s\n", repfs.stats().c_str());

  Checks check;
  check(wan_MBps > 0 && local_MBps >= 3.0 * wan_MBps,
        "replica-local cold read >= 3x the WAN-window rate");
  check(outage_read.moved(kFile),
        "every byte read from the surviving replica during the blackout "
        "(zero data loss)");
  check(rep_reads >= 1, "reads actually served by replica copies");
  check(osync.has_value() && osync->ok(),
        "writes kept committing through the blackout (re-anchored)");
  check(repfs.replica_divergences() >= 1,
        "unreachable copies marked divergent, not silently served");
  check(reconciled >= 1, "divergent copies reconciled after the heal");
  check(rep_fsck.clean() && home_fsck.clean(), "fsck clean after reconcile");

  if (!json_path.empty()) {
    write_json(json_path, "chaos_soak_site_outage",
               {{"read_MBps_wan", wan_MBps, 1},
                {"read_MBps_replica_local", local_MBps, 1},
                {"replica_reads", rep_reads},
                {"replica_divergences", repfs.replica_divergences()},
                {"replicas_reconciled", reconciled}},
               check.ok);
  }
  return check.ok;
}

bool run_nsd_loss(const std::string& /*json_path*/) {
  World w({.hosts = 7, .cfg = chaos_cfg(0.5), .servers = 4, .nsds = 8,
           .mounts = {5, 6}});
  sim::Simulator& sim = w.sim;
  gpfs::FileSystem& fs = *w.farm.fs;
  gpfs::Client* writer = w.clients[0];
  gpfs::Client* reader = w.clients[1];

  constexpr Bytes kFile = 16 * MiB;
  gpfs::Fh wfh =
      w.open(writer, "/data", gpfs::OpenFlags::create_replicated(2));
  w.commit(writer, wfh, 0, kFile, "replicated commit failed");

  // The loss: NSD 2's media dies permanently (fs-local index — the
  // farm's only file system maps its NSDs 1:1).
  const std::uint32_t lost = 2;
  w.inject.schedule_nsd_loss(sim.now(), fs, lost);

  // Cold read through the loss: blocks with a copy on the dead NSD get
  // io_error (final, not retried) and redirect to the surviving copy.
  gpfs::Fh rfh = w.open(reader, "/data", gpfs::OpenFlags::ro());
  const Result<Bytes> rr =
      bench::await(sim, reader, &gpfs::Client::read, rfh, 0, kFile);

  // New files still allocate (around the dead NSD).
  gpfs::Fh w2fh =
      w.open(writer, "/after", gpfs::OpenFlags::create_replicated(2));
  const Result<Bytes> w2 =
      bench::await(sim, writer, &gpfs::Client::write, w2fh, 0, 8 * MiB);
  const Status w2sync = bench::await(sim, writer, &gpfs::Client::fsync, w2fh);

  // Re-protection: re-home every copy that lived on the dead NSD.
  const std::uint64_t moved = fs.evacuate_nsd(lost);
  fs.reconcile_replicas();
  const gpfs::FsckReport fsck = fs.fsck();

  std::printf("  lost NSD %u; evacuated %llu copies\n", lost, ull(moved));
  std::printf("  replica reads %llu, failovers %llu\n",
              ull(reader->replica_reads()), ull(reader->replica_failovers()));
  std::printf("  manager: %s\n", fs.stats().c_str());

  Checks check;
  check(rr.ok() && *rr == kFile,
        "every byte read back through the loss (zero data loss)");
  check(reader->replica_reads() >= 1,
        "reads of lost-copy blocks served by the surviving replica");
  check(w2.ok() && w2sync.ok(),
        "new file committed with allocation routed around the dead NSD");
  check(moved >= 1, "evacuation re-homed the lost copies");
  check(fsck.clean(), "fsck clean after evacuation");
  return check.ok;
}

/// One run of this bench: `--scenario name` selects it ("" is the
/// default soak) and `title` heads its banner.
struct Drill {
  const char* name;
  const char* title;
  bool (*run)(const std::string& json_path);
};

const Drill kDrills[] = {
    // The default soak: the file header describes it.
    {"", "seeded fault schedule vs. fault-free baseline", run_soak},

    // Disk-lease recovery drill (DESIGN.md §6). A writer stages dirty,
    // never-fsynced data over a shared region, then goes mute behind a
    // blackhole. The manager expels it after the lease recovery wait,
    // replays its metadata journal and re-grants the range; a
    // survivor's overlapping write completes within a few lease
    // periods. When the partition heals, the victim's late write-behind
    // flush arrives with the dead incarnation's epoch and is fenced at
    // the NSD servers; the victim rejoins under a fresh epoch and
    // finishes cleanly.
    {"crash_dirty_writer",
     "disk-lease expel, journal replay and epoch fencing",
     run_crash_dirty_writer},

    // Manager-takeover drill (DESIGN.md §6). The manager node crashes
    // while a writer has I/O in flight, a second client is dead with
    // dirty data, and a third is partitioned with dirty data. The
    // lowest-id live node takes the role within the takeover budget and
    // rebuilds token state from client assertions — expelling the dead
    // holder (journal replay) on the spot. The in-flight write reroutes
    // to the successor and completes; the healed partitioned client's
    // late flush, still stamped with the deposed incarnation's manager
    // epoch, is fenced at the NSD servers and the client rejoins under
    // the new epoch.
    {"manager_crash",
     "manager takeover: election, token rebuild, epoch fencing",
     run_manager_crash},

    // Shard-crash drill (DESIGN.md §8): blast-radius containment of the
    // sharded metadata plane. A 4-shard file system seats each token
    // domain's manager on its own node; one steady writer is pinned to
    // each domain (write + fsync loop, every cycle an allocation and a
    // commit on that shard alone). Shard 2's manager node crashes
    // mid-stream. Only that domain may stall: the other three writers
    // must keep committing right through the outage, the victim
    // domain's successor must be elected and grant again within 2 lease
    // periods (_t1g_), the victim's writer must resume, no shard but
    // the victim's may change epoch, and no client may be expelled —
    // the batched lease heartbeat rides to shard 0, which never went
    // down.
    {"shard_crash",
     "sharded metadata plane: one domain's manager dies, the rest keep "
     "serving",
     run_shard_crash},

    // Whole-site outage drill. One GPFS cluster spans two network sites
    // joined by a narrow high-latency WAN circuit: the "home" machine
    // room holds 4 NSDs of an unreplicated file system (what a cold
    // remote site reads at WAN-window rates), and a second replicated
    // file system stripes 4 home NSDs + 4 edge NSDs with 2-copy files
    // spread across the two sites. The file-system manager runs at the
    // edge. The drill measures the cold-site read rate with and without
    // replicas, then blacks out every home serving node: reads of the
    // replicated file must continue from the edge copies with zero data
    // loss, the writer's overwrite must re-anchor and mark the dark
    // copies divergent rather than stall, and after the heal
    // reconciliation must leave fsck clean. `--json` dumps its rates
    // and replica counters.
    {"site_outage",
     "cross-site replicas: nearest-replica reads, whole-site blackout, "
     "reconciliation",
     run_site_outage},

    // Permanent-NSD-loss drill. A 2-copy file is committed, then one
    // NSD's backing device fails for good (every I/O returns media
    // errors) and the allocator marks it down. Cold reads succeed
    // through the surviving copies (io_error is non-retryable, so the
    // client redirects instead of retrying into the dead disk), new
    // files allocate around the loss, and evacuate_nsd() restores
    // 2-copy protection by re-homing every surviving copy's lost twin
    // — after which fsck is clean.
    {"nsd_loss",
     "permanent NSD loss: replica reads, allocation rerouting, evacuation",
     run_nsd_loss},
};

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  for (const Drill& d : kDrills) {
    if (scenario != d.name) continue;
    bench::banner(scenario.empty() ? "chaos_soak"
                                   : "chaos_soak --scenario " + scenario,
                  d.title);
    return d.run(json_path) ? 0 : 1;
  }
  std::cerr << "unknown scenario: " << scenario << "\n";
  return 2;
}
