// T-paradigm reproduction — §1/§8: direct WAN file-system access versus
// the wholesale-movement workflow it replaced.
//
// The paper's motivating example: NVO is ~50 TB, used as input "more as
// a database, not requiring anywhere near the full amount of data, but
// instead retrieving individual pieces of very large files"; staging it
// to every interested site wastes both transfer time and a full copy of
// disk at each site.
//
// This bench scales the dataset to 1 TB (shape-preserving) and runs the
// same analysis — a query stream touching well under 1% of the data —
// three ways:
//   1. GridFTP wholesale staging, then local reads   (the old paradigm)
//   2. GridFTP partial gets of exactly the query ranges
//   3. direct GFS reads through a multi-cluster remote mount
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "gridftp/gridftp.hpp"
#include "workload/apps.hpp"

using namespace mgfs;

int main() {
  bench::banner("T-PARADIGM",
                "§1/§8: GFS direct access vs GridFTP wholesale staging");

  sim::Simulator sim;
  net::Network net(sim);
  net::TeraGridSpec spec;
  spec.sdsc_hosts = 12;
  spec.ncsa_hosts = 6;
  net::TeraGrid tg = net::make_teragrid_2004(net, spec);

  const Bytes kDataset = 1 * TB;
  const std::size_t kQueries = 24;
  const Bytes kMeanQuery = 128 * MiB;

  // --- SDSC side: the dataset lives both in a GPFS file system (for the
  // GFS paradigm) and in a plain file store (for the FTP paradigm).
  gpfs::ClusterConfig scfg;
  scfg.name = "sdsc";
  scfg.tcp.window = 2 * MiB;
  scfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster sdsc(sim, net, scfg, Rng(1));
  bench::ServerFarm farm = bench::make_rate_farm(
      sdsc, sim, tg.sdsc, 0, 8, 16, 400e6, 4 * TiB, "gpfs-wan");
  bench::seed_file(*farm.fs, "/nvo.dat", kDataset);

  storage::RateDevice sdsc_disk(sim, 4 * TiB, 2e9, 0.5e-3, "sdsc-ftp");
  gridftp::FileStore sdsc_store(sdsc_disk);
  MGFS_ASSERT(sdsc_store.add("/nvo.dat", kDataset).ok(), "store seed");
  gridftp::GridFtpServer ftp_server(net, tg.sdsc.hosts[10], sdsc_store);

  // --- NCSA side.
  storage::RateDevice ncsa_disk(sim, 2 * TiB, 2e9, 0.5e-3, "ncsa-scratch");
  gridftp::FileStore ncsa_store(ncsa_disk);

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "\n  dataset " << kDataset / 1e12 << " TB; " << kQueries
            << " queries, mean " << kMeanQuery / 1e6 << " MB each\n";

  // ---- 1. wholesale staging --------------------------------------------
  gridftp::GridFtpConfig fcfg;
  fcfg.parallel_streams = 8;
  fcfg.tcp.window = 1 * MiB;
  fcfg.tcp.chunk = 256 * KiB;
  gridftp::GridFtpClient ftp(net, tg.ncsa.hosts[0], fcfg);
  double t0 = sim.now();
  const Bytes stage_bytes =
      bench::must(bench::await(sim, &ftp, &gridftp::GridFtpClient::get,
                               ftp_server, "/nvo.dat", &ncsa_store),
                  "staging failed")
          .bytes;
  const double stage_time = sim.now() - t0;

  // ---- 2. partial GridFTP gets ------------------------------------------
  // Same query ranges the GFS run will use (same RNG seed).
  Rng qrng(99);
  std::vector<std::pair<Bytes, Bytes>> ranges;
  for (std::size_t i = 0; i < kQueries; ++i) {
    Bytes len = static_cast<Bytes>(
        qrng.exponential(static_cast<double>(kMeanQuery)));
    len = std::clamp<Bytes>(len, 1 * MiB, 4 * GiB);
    ranges.emplace_back(qrng.below(kDataset - len + 1), len);
  }
  t0 = sim.now();
  Bytes partial_bytes = 0;
  {
    std::size_t qi = 0;
    std::function<void()> next = [&] {
      if (qi >= ranges.size()) return;
      const auto [off, len] = ranges[qi++];
      ftp.get_range(ftp_server, "/nvo.dat", off, len, nullptr,
                    [&](Result<gridftp::TransferStats> r) {
                      MGFS_ASSERT(r.ok(), "partial get failed");
                      partial_bytes += r->bytes;
                      next();
                    });
    };
    next();
    sim.run();
  }
  const double partial_time = sim.now() - t0;

  // ---- 3. direct GFS access ---------------------------------------------
  gpfs::ClusterConfig ncfg;
  ncfg.name = "ncsa";
  ncfg.tcp.window = 1 * MiB;
  ncfg.tcp.chunk = 256 * KiB;
  ncfg.client.readahead_blocks = 8;
  gpfs::Cluster ncsa(sim, net, ncfg, Rng(2));
  for (net::NodeId h : tg.ncsa.hosts) ncsa.add_node(h);
  auto clients = bench::remote_mount_all(sim, sdsc, ncsa, "gpfs-wan",
                                         farm.manager, {tg.ncsa.hosts[1]});
  workload::NvoConfig ncfg2;
  ncfg2.queries = kQueries;
  ncfg2.mean_query_bytes = kMeanQuery;
  ncfg2.queue_depth = 8;
  ncfg2.seed = 99;
  workload::NvoQueryStream nvo(clients[0], "/nvo.dat", bench::kUser, ncfg2);
  t0 = sim.now();
  const workload::NvoStats gfs = bench::must(
      bench::await(sim, &nvo, &workload::NvoQueryStream::run),
      "gfs queries failed");
  const double gfs_time = sim.now() - t0;

  // ---- results -------------------------------------------------------------
  std::cout << "\n  paradigm                      bytes moved      time     "
               " local disk needed\n";
  auto row = [&](const std::string& name, Bytes bytes, double secs,
                 Bytes disk) {
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(9) << bytes / 1e9 << " GB  " << std::setw(8)
              << secs << " s  " << std::setw(9) << disk / 1e9 << " GB\n";
  };
  row("GridFTP wholesale staging", stage_bytes, stage_time, kDataset);
  row("GridFTP partial gets", partial_bytes, partial_time, 0);
  row("GFS direct remote reads", gfs.bytes_touched, gfs_time, 0);

  std::cout << "\nSummary (paper §1/§8):\n";
  std::cout << "  wholesale staging moves " << std::setprecision(0)
            << static_cast<double>(stage_bytes) / gfs.bytes_touched
            << "x the bytes the analysis touches and is "
            << stage_time / gfs_time
            << "x slower end-to-end — and needs a full dataset copy on "
               "local disk.\n"
            << std::defaultfloat << std::setprecision(6);
  std::cout << "  partial FTP transfers comparable bytes but offers no "
               "caching, no POSIX access, and no coherence; the GFS serves "
               "the same analysis through a normal mount.\n";
  return 0;
}
