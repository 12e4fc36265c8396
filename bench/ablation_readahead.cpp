// Ablation A-4 — client readahead depth (DESIGN.md §5): a single remote
// client streaming over the TeraGrid. Prefetch depth controls how much
// data is in flight per client, which on a ~60 ms RTT is the difference
// between the ANL production number (~37 MB/s/node, §5) and wire speed.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "workload/stream.hpp"

using namespace mgfs;

namespace {

double run(int readahead, std::size_t app_qd) {
  sim::Simulator sim;
  net::Network net(sim);
  net::TeraGridSpec spec;
  spec.sdsc_hosts = 10;
  spec.ncsa_hosts = 2;
  net::TeraGrid tg = net::make_teragrid_2004(net, spec);
  gpfs::ClusterConfig scfg;
  scfg.name = "sdsc";
  scfg.tcp.window = 2 * MiB;
  scfg.tcp.chunk = 256 * KiB;
  gpfs::Cluster sdsc(sim, net, scfg, Rng(3));
  bench::ServerFarm farm = bench::make_rate_farm(
      sdsc, sim, tg.sdsc, 0, 8, 16, 400e6, 1 * TiB, "fs");
  bench::seed_file(*farm.fs, "/stream", 2 * GiB);

  gpfs::ClusterConfig ncfg;
  ncfg.name = "ncsa";
  ncfg.tcp.window = 2 * MiB;
  ncfg.tcp.chunk = 256 * KiB;
  ncfg.client.readahead_blocks = readahead;
  gpfs::Cluster ncsa(sim, net, ncfg, Rng(4));
  for (net::NodeId h : tg.ncsa.hosts) ncsa.add_node(h);
  auto clients = bench::remote_mount_all(sim, sdsc, ncsa, "fs",
                                         farm.manager, {tg.ncsa.hosts[0]});
  workload::SequentialReader::Options opt;
  opt.stream.request = 1 * MiB;
  opt.stream.queue_depth = app_qd;
  workload::SequentialReader reader(clients[0], "/stream", bench::kUser,
                                    opt);
  const double t0 = sim.now();
  bench::must(bench::await(sim, &reader, &workload::SequentialReader::start),
              "read failed");
  return static_cast<double>(reader.bytes_read()) / (sim.now() - t0) / 1e6;
}

}  // namespace

int main() {
  bench::banner("ABLATION-READAHEAD",
                "single remote client, ~60 ms RTT, GbE NIC");
  std::cout << "\n  readahead blocks (app qd=2)   MB/s\n";
  std::cout << std::fixed << std::setprecision(1);
  for (int ra : {0, 2, 4, 8, 16, 32}) {
    std::cout << "  " << std::setw(10) << ra << "          " << std::setw(10)
              << run(ra, 2) << "\n";
  }
  std::cout << "\n  app queue depth (readahead=0)  MB/s\n";
  for (std::size_t qd : {1u, 2u, 4u, 8u, 16u}) {
    std::cout << "  " << std::setw(10) << qd << "          " << std::setw(10)
              << run(0, qd) << "\n";
  }
  std::cout << std::defaultfloat;
  std::cout << "\n  Either knob (kernel prefetch or application "
               "pipelining) fills the latency pipe; with both at 2005 "
               "defaults you get the paper's ~37 MB/s per ANL node.\n";
  return 0;
}
