// Scale sweep — production-scale event-core throughput.
//
// ROADMAP open item: "make the simulator itself production-scale".
// This bench measures the *simulator's* throughput (simulated events
// per wall-clock second), not the modeled file system's: the timer
// wheel, the interval token tables and the two-level allocation bitmaps
// are the structures under test.
//
// Three sweeps:
//   * fig11-shaped MPI-IO at 64 → 1024 clients sharing one file over a
//     rate-device farm (the paper's Fig. 11 workload shape, scaled past
//     the 2005 machine-room's 64 nodes toward the roadmap's 100k-client
//     ambition) — reports sim-events/sec and wall time per point;
//   * a cancel-heavy timer sweep (schedule + 90% cancel, the RPC
//     deadline pattern that dominates event-queue traffic);
//   * a token-churn sweep (hundreds of holders on one inode, the
//     interval-table hot path).
//
// `--smoke` runs a reduced sweep for CI; ci/bench_smoke.sh gates on the
// fig11-shaped sim-events/sec floor. `--json PATH` dumps all series.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gpfs/token.hpp"
#include "workload/mpiio.hpp"

using namespace mgfs;

namespace {

double wall_seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ScalePoint {
  std::size_t clients = 0;
  double write_MBps = 0;
  double read_MBps = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_s = 0;
};

// One fig11-shaped point: `n` clients MPI-IO-write one shared file then
// read it back cold, over a 32-server rate-device farm. Everything is
// seeded, so the sim-side numbers are byte-stable; only wall time (and
// therefore events/sec) varies with the host machine.
ScalePoint run_fig11_shaped(std::size_t n, Bytes block, Bytes per_task) {
  constexpr std::size_t kServers = 32;
  constexpr std::size_t kNsds = 64;

  sim::Simulator sim;
  net::Network net(sim);
  net::Site site =
      net::add_site(net, "scale", kServers + 1 + n, gbps(1.0));

  gpfs::ClusterConfig cfg;
  cfg.name = "scale";
  cfg.tcp.window = 2 * MiB;
  cfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster cluster(sim, net, cfg, Rng(42));

  bench::ServerFarm farm = bench::make_rate_farm(
      cluster, sim, site, /*first_host=*/0, kServers, kNsds,
      BytesPerSec(200e6), /*device_capacity=*/64 * GiB, "scale");

  std::vector<gpfs::Client*> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::NodeId node = site.hosts.at(kServers + 1 + i);
    cluster.add_node(node);
    auto c = cluster.mount("scale", node);
    MGFS_ASSERT(c.ok(), "mount failed");
    tasks.push_back(*c);
  }

  workload::MpiIoConfig mcfg;
  mcfg.block = block;
  mcfg.transfer = 1 * MiB;
  mcfg.queue_depth = 4;
  mcfg.per_task = per_task;  // must be a multiple of block

  const auto t0 = std::chrono::steady_clock::now();

  mcfg.write = true;
  workload::MpiIoJob wjob(tasks, "/scale", bench::kUser, mcfg);
  const workload::MpiIoResult wres = bench::must(
      bench::await(sim, &wjob, &workload::MpiIoJob::run), "scale write failed");

  // Cold-cache read-back: fresh clients on the same hosts (fig11 idiom).
  for (gpfs::Client* c : tasks) cluster.unmount(c);
  for (std::size_t i = 0; i < n; ++i) {
    auto c = cluster.mount("scale", site.hosts.at(kServers + 1 + i));
    MGFS_ASSERT(c.ok(), "remount failed");
    tasks[i] = *c;
  }

  mcfg.write = false;
  workload::MpiIoJob rjob(tasks, "/scale", bench::kUser, mcfg);
  const workload::MpiIoResult rres = bench::must(
      bench::await(sim, &rjob, &workload::MpiIoJob::run), "scale read failed");

  ScalePoint p;
  p.clients = n;
  p.wall_s = wall_seconds_since(t0);
  p.write_MBps = wres.aggregate_MBps();
  p.read_MBps = rres.aggregate_MBps();
  p.events = sim.events_processed();
  p.events_per_s = static_cast<double>(p.events) / p.wall_s;
  return p;
}

struct MicroPoint {
  std::uint64_t ops = 0;
  double wall_s = 0;
  double ops_per_s = 0;
};

// RPC-deadline pattern: schedule a batch of cancellable timers, cancel
// 90% before they fire (the watchdog was disarmed in time), drain the
// rest. Ops = schedules + cancels + fires.
MicroPoint run_cancel_heavy(std::uint64_t timers) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  std::vector<sim::TimerId> ids;
  ids.reserve(timers);
  std::uint64_t fired = 0;
  for (std::uint64_t i = 0; i < timers; ++i) {
    const double t =
        30.0 + static_cast<double>((i * 7919) % 100000) * 1e-5;
    ids.push_back(sim.after_cancellable(t, [&fired] { ++fired; }));
  }
  std::uint64_t cancels = 0;
  for (std::uint64_t i = 0; i < timers; ++i) {
    if (i % 10 != 9) {
      sim.cancel(ids[i]);
      ++cancels;
    }
  }
  sim.run();
  MGFS_ASSERT(fired == timers - cancels, "cancel-heavy lost events");
  MicroPoint p;
  p.ops = timers + cancels + fired;
  p.wall_s = wall_seconds_since(t0);
  p.ops_per_s = static_cast<double>(p.ops) / p.wall_s;
  return p;
}

// Interval-table hot path: `holders` clients each hold an rw range on
// one inode; a churn loop request/releases against its own stripe with
// a batched desired window, steady-state (in-place table edits).
MicroPoint run_token_churn(std::uint32_t holders, std::uint64_t rounds) {
  constexpr Bytes kStripe = 1 * MiB;
  const auto t0 = std::chrono::steady_clock::now();
  gpfs::TokenManager tm;
  constexpr gpfs::InodeNum kIno = 7;
  for (std::uint32_t c = 0; c < holders; ++c) {
    const Bytes base = static_cast<Bytes>(c) * kStripe;
    // install, not request: a request with no other holders would be
    // widened to the whole file and block every later holder.
    tm.install(c, kIno, gpfs::LockMode::rw, {base, base + kStripe / 2});
  }
  std::uint64_t ops = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint32_t c = static_cast<std::uint32_t>(r % holders);
    const Bytes base = static_cast<Bytes>(c) * kStripe;
    const gpfs::TokenRange need{base + kStripe / 2 - 4096,
                                base + kStripe / 2};
    const gpfs::TokenRange want{base, base + kStripe};
    auto d = tm.request(c, kIno, need, want, gpfs::LockMode::rw);
    MGFS_ASSERT(d.granted, "token churn hit a conflict");
    tm.release(c, kIno, {base + kStripe / 2, base + kStripe});
    ops += 2;
  }
  MicroPoint p;
  p.ops = ops;
  p.wall_s = wall_seconds_since(t0);
  p.ops_per_s = static_cast<double>(p.ops) / p.wall_s;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::banner("SCALE",
                "event-core throughput: fig11-shaped client sweep + "
                "cancel-heavy + token-churn");

  // Full mode keeps the paper's 128 MiB MPI-IO block (one block per
  // task keeps the 1024-client point inside CI minutes); smoke shrinks
  // the block so the whole sweep stays a few seconds.
  const std::vector<std::size_t> counts =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 256, 1024};
  const Bytes block = smoke ? 16 * MiB : 128 * MiB;
  const Bytes per_task = block;

  std::cout << std::fixed << std::setprecision(0);
  std::cout << "\n  clients   write MB/s   read MB/s     sim events   "
               "wall s   Mev/s\n";
  std::vector<ScalePoint> points;
  for (std::size_t n : counts) {
    points.push_back(run_fig11_shaped(n, block, per_task));
    const ScalePoint& p = points.back();
    std::printf("  %7zu  %11.0f  %10.0f  %13llu  %6.2f  %6.2f\n", p.clients,
                p.write_MBps, p.read_MBps,
                static_cast<unsigned long long>(p.events), p.wall_s,
                p.events_per_s / 1e6);
  }

  const MicroPoint cancel =
      run_cancel_heavy(smoke ? 500000ULL : 2000000ULL);
  std::printf("\n  cancel-heavy: %llu ops in %.2f s (%.1f M ops/s)\n",
              static_cast<unsigned long long>(cancel.ops), cancel.wall_s,
              cancel.ops_per_s / 1e6);

  const MicroPoint churn =
      run_token_churn(512, smoke ? 200000ULL : 1000000ULL);
  std::printf("  token-churn:  %llu ops in %.2f s (%.1f M ops/s)\n",
              static_cast<unsigned long long>(churn.ops), churn.wall_s,
              churn.ops_per_s / 1e6);

  double min_events_per_s = points.front().events_per_s;
  for (const ScalePoint& p : points) {
    min_events_per_s = std::min(min_events_per_s, p.events_per_s);
  }
  std::printf("\n  slowest fig11-shaped point: %.2f M sim-events/s\n",
              min_events_per_s / 1e6);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << std::fixed << std::setprecision(1);
    out << "{\n  \"bench\": \"scale_sweep\",\n  \"smoke\": "
        << (smoke ? "true" : "false") << ",\n  \"clients\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].clients;
    }
    out << "],\n  \"write_MBps\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].write_MBps;
    }
    out << "],\n  \"read_MBps\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].read_MBps;
    }
    out << "],\n  \"sim_events\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].events;
    }
    out << "],\n  \"wall_s\": [";
    out << std::setprecision(3);
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].wall_s;
    }
    out << "],\n  \"events_per_s\": [";
    out << std::setprecision(0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].events_per_s;
    }
    out << "],\n  \"min_events_per_s\": " << min_events_per_s << ",\n";
    out << "  \"cancel_heavy_ops_per_s\": " << cancel.ops_per_s << ",\n";
    out << "  \"token_churn_ops_per_s\": " << churn.ops_per_s << "\n}\n";
    std::cout << "\n  JSON written to " << json_path << "\n";
  }
  return 0;
}
