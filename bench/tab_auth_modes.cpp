// T-auth reproduction — §6: the GPFS 2.3 multi-cluster security modes.
//
// The paper's contribution: replacing passwordless root rsh between
// administrative domains with per-cluster RSA keypairs (mmauth),
// mutual challenge-response at mount, per-filesystem ro/rw grants, and
// a cipherList option that can also encrypt all filesystem traffic.
//
// This bench measures what each mode costs on a fast (10 GbE) WAN pair:
//   * mount handshake latency
//   * bulk read throughput (encrypt pays ~150 MB/s-per-CPU software
//     crypto on both endpoints — 2005-era IA64 rates)
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "workload/stream.hpp"

using namespace mgfs;

namespace {

struct ModeResult {
  double mount_ms = 0;
  double read_MBps = 0;
};

ModeResult run_mode(auth::CipherList cipher) {
  sim::Simulator sim;
  net::Network net(sim);
  // Two 10 GbE-attached sites, ~10 ms apart.
  net::Site a = net::add_site(net, "sdsc", 8, gbps(10.0));
  net::Site b = net::add_site(net, "remote", 3, gbps(10.0));
  net.connect(a.sw, b.sw, gbps(10.0), 5e-3, 0.94);

  gpfs::ClusterConfig scfg;
  scfg.name = "sdsc";
  scfg.cipher = cipher;
  scfg.tcp.window = 8 * MiB;
  scfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster sdsc(sim, net, scfg, Rng(1));
  bench::ServerFarm farm = bench::make_rate_farm(
      sdsc, sim, a, 0, 6, 12, 500e6, 2 * TiB, "gpfs-wan");
  bench::seed_file(*farm.fs, "/bulk", 4 * GiB);

  gpfs::ClusterConfig rcfg;
  rcfg.name = "remote";
  rcfg.tcp.window = 8 * MiB;
  rcfg.tcp.chunk = 1 * MiB;
  rcfg.client.readahead_blocks = 16;
  gpfs::Cluster remote(sim, net, rcfg, Rng(2));
  for (net::NodeId h : b.hosts) remote.add_node(h);

  const double t_mount = sim.now();
  auto clients = bench::remote_mount_all(sim, sdsc, remote, "gpfs-wan",
                                         farm.manager, {b.hosts[0]});
  ModeResult res;
  res.mount_ms = (sim.now() - t_mount) * 1e3;

  workload::SequentialReader::Options opt;
  opt.stream.request = 8 * MiB;
  opt.stream.queue_depth = 8;
  workload::SequentialReader reader(clients[0], "/bulk", bench::kUser, opt);
  const double t0 = sim.now();
  bench::must(bench::await(sim, &reader, &workload::SequentialReader::start),
              "bulk read failed");
  res.read_MBps =
      static_cast<double>(reader.bytes_read()) / (sim.now() - t0) / 1e6;
  return res;
}

}  // namespace

int main() {
  bench::banner("T-AUTH", "§6: cipherList modes — handshake and data-path "
                          "cost");
  std::cout << "\n  cipherList   mount handshake    bulk read (10 GbE "
               "client)\n";
  std::cout << std::fixed << std::setprecision(1);
  const auth::CipherList modes[] = {auth::CipherList::none,
                                    auth::CipherList::authonly,
                                    auth::CipherList::encrypt};
  double plain_rate = 0, enc_rate = 0;
  for (auth::CipherList m : modes) {
    ModeResult r = run_mode(m);
    std::cout << "  " << std::left << std::setw(11) << auth::cipher_name(m)
              << std::right << std::setw(12) << r.mount_ms << " ms  "
              << std::setw(18) << r.read_MBps << " MB/s\n";
    if (m == auth::CipherList::authonly) plain_rate = r.read_MBps;
    if (m == auth::CipherList::encrypt) enc_rate = r.read_MBps;
  }
  std::cout << std::defaultfloat;
  std::cout << "\nSummary (paper §6):\n";
  std::cout << "  AUTHONLY costs only the mount-time RSA exchange — the "
               "data path is unchanged, which is why it became the "
               "default.\n";
  std::cout << std::fixed << std::setprecision(0)
            << "  encrypt binds the data path at the software-crypto rate: "
            << enc_rate << " MB/s vs " << plain_rate
            << " MB/s (~150 MB/s per 2005 CPU endpoint).\n"
            << std::defaultfloat;
  std::cout << "  And unlike the pre-2.3 scheme, no passwordless root "
               "shell crosses any administrative boundary.\n";
  return 0;
}
