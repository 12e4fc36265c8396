// T-deisa reproduction — §7: the DEISA multi-cluster GPFS federation.
//
// "Among the four DEISA core-sites, CINECA (Italy), FZJ (Germany),
// IDRIS (France) and RZG (Germany), IBM's Multi-Cluster GPFS has been
// set up ... Each site provides its own GPFS file system which is
// exported to all the other sites ... the current wide area network
// bandwidth of 1 Gb/s among the DEISA core sites can be fully exploited
// by the global file system ... several benchmarks showed I/O rates of
// more than 100 Mbytes/s, thus hitting the theoretical limit of the
// network connection."
//
// Four clusters, full-mesh 1 Gb/s WAN, every site exports to every
// other; a plasma-turbulence-style job at each site does direct I/O to
// a remote file system hundreds of kilometers away.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "workload/stream.hpp"

using namespace mgfs;

int main() {
  bench::banner("T-DEISA", "§7: four-site MC-GPFS federation on 1 Gb/s WAN");

  sim::Simulator sim;
  net::Network net(sim);
  const std::vector<std::string> names = {"cineca", "fzj", "idris", "rzg"};
  std::vector<net::Site> sites;
  for (const auto& n : names) {
    sites.push_back(net::add_site(net, n, 8, gbps(1.0)));
  }
  // Full mesh of 1 Gb/s links, ~6 ms one way (hundreds of km).
  for (std::size_t a = 0; a < sites.size(); ++a) {
    for (std::size_t b = a + 1; b < sites.size(); ++b) {
      net.connect(sites[a].sw, sites[b].sw, gbps(1.0), 6e-3, 0.94);
    }
  }

  std::vector<std::unique_ptr<gpfs::Cluster>> clusters;
  std::vector<bench::ServerFarm> farms;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    gpfs::ClusterConfig cfg;
    cfg.name = names[i];
    cfg.tcp.window = 2 * MiB;
    cfg.tcp.chunk = 256 * KiB;
    cfg.client.readahead_blocks = 16;
    clusters.push_back(std::make_unique<gpfs::Cluster>(sim, net, cfg,
                                                       Rng(10 + i)));
    farms.push_back(bench::make_rate_farm(*clusters[i], sim, sites[i], 0, 4,
                                          4, 300e6, 2 * TiB,
                                          "gpfs-" + names[i]));
    for (std::size_t h = 5; h < sites[i].hosts.size(); ++h) {
      clusters[i]->add_node(sites[i].hosts[h]);
    }
    bench::seed_file(*farms[i].fs, "/plasma.h5", 4 * GiB);
  }

  // Every site exports to every other site (12 trust relationships).
  std::cout << "\n  site pair            direct remote read   (link limit "
               "117 MB/s usable)\n";
  std::cout << std::fixed << std::setprecision(1);
  double min_rate = 1e18, max_rate = 0;
  double direct[4][4] = {};
  for (std::size_t importer = 0; importer < 4; ++importer) {
    for (std::size_t exporter = 0; exporter < 4; ++exporter) {
      if (importer == exporter) continue;
      auto clients = bench::remote_mount_all(
          sim, *clusters[exporter], *clusters[importer],
          "gpfs-" + names[exporter], farms[exporter].manager,
          {sites[importer].hosts[5 + importer % 2]});
      workload::SequentialReader::Options opt;
      opt.stream.request = 4 * MiB;
      opt.stream.queue_depth = 8;
      workload::SequentialReader job(clients[0], "/plasma.h5", bench::kUser,
                                     opt);
      const double t0 = sim.now();
      bench::must(bench::await(sim, &job, &workload::SequentialReader::start),
                  "deisa read failed");
      const double rate =
          static_cast<double>(job.bytes_read()) / (sim.now() - t0) / 1e6;
      direct[importer][exporter] = rate;
      min_rate = std::min(min_rate, rate);
      max_rate = std::max(max_rate, rate);
      std::cout << "  " << std::setw(7) << names[importer] << " <- "
                << std::setw(7) << names[exporter] << "      "
                << std::setw(7) << rate << " MB/s\n";
      clusters[importer]->unmount(clients[0]);
    }
  }
  // ---- With replicas: a federated 2-copy file system spanning all
  // four core sites. Each site contributes one NSD tagged with its own
  // failure domain; a dataset created with two copies lands every
  // block on NSDs in two different countries. The question the column
  // answers: what does a cold site read when the "exporting" site goes
  // dark? Single-copy: nothing. Two-copy: the nearest surviving
  // replica, still at the wire limit.
  gpfs::ClusterConfig fcfg;
  fcfg.name = "deisa-fed";
  fcfg.tcp.window = 2 * MiB;
  fcfg.tcp.chunk = 256 * KiB;
  fcfg.client.readahead_blocks = 16;
  auto fed = std::make_unique<gpfs::Cluster>(sim, net, fcfg, Rng(42));
  std::vector<std::unique_ptr<storage::RateDevice>> fdevs;
  std::vector<std::uint32_t> fids;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const net::NodeId srv = sites[i].hosts[7];  // untouched by phase 1
    fed->add_node(srv);
    fed->add_nsd_server(srv);
    fdevs.push_back(std::make_unique<storage::RateDevice>(
        sim, 1 * TiB, 300e6, 0.5e-3, "fed-" + names[i]));
    fids.push_back(fed->create_nsd("fednsd-" + names[i], fdevs.back().get(),
                                   srv, std::nullopt,
                                   static_cast<std::uint32_t>(i)));
  }
  gpfs::FileSystem& fedfs =
      fed->create_filesystem("deisa-fed", fids, 1 * MiB, sites[0].hosts[7]);

  // CINECA produces the dataset: /shared.h5 with two copies per block,
  // /single.h5 with the classic one copy (striped over all four sites).
  auto wres = fed->mount("deisa-fed", sites[0].hosts[7]);
  MGFS_ASSERT(wres.ok(), "fed writer mount failed");
  gpfs::Client* writer = *wres;
  for (const char* path : {"/shared.h5", "/single.h5"}) {
    const bool rep = std::string(path) == "/shared.h5";
    const gpfs::Fh fh = bench::must(
        bench::await(sim, writer, &gpfs::Client::open, path, bench::kUser,
                     rep ? gpfs::OpenFlags::create_replicated(2)
                         : gpfs::OpenFlags::create_rw()),
        "fed create failed");
    bench::must(bench::await(sim, writer, &gpfs::Client::close, fh),
                "fed close failed");
    workload::StreamConfig wcfg;
    wcfg.request = 4 * MiB;
    wcfg.queue_depth = 8;
    wcfg.total = 512 * MiB;
    workload::SequentialWriter sw(writer, path, bench::kUser, wcfg);
    bench::must(bench::await(sim, &sw, &workload::SequentialWriter::start),
                "fed write failed");
  }

  // Cold read of the shared dataset from every importing site, for
  // every choice of dark "exporter" site: mark that site's NSD down
  // and fail its media, read, heal, repeat.
  auto fed_read = [&](std::size_t at, const char* path, double* rate) {
    auto mres = fed->mount("deisa-fed", sites[at].hosts[7]);
    MGFS_ASSERT(mres.ok(), "fed reader mount failed");
    workload::SequentialReader::Options opt;
    opt.stream.request = 4 * MiB;
    opt.stream.queue_depth = 8;
    workload::SequentialReader job(*mres, path, bench::kUser, opt);
    const double t0 = sim.now();
    const Status st =
        bench::await(sim, &job, &workload::SequentialReader::start);
    if (rate != nullptr) {
      *rate = static_cast<double>(job.bytes_read()) / (sim.now() - t0) / 1e6;
    }
    fed->unmount(*mres);
    return st.ok();
  };

  std::cout << "\n  site pair            no replicas   2-copy   2-copy, "
               "exporter dark\n";
  std::cout << std::fixed << std::setprecision(1);
  double fed_min = 1e18, dark_min = 1e18;
  for (std::size_t importer = 0; importer < 4; ++importer) {
    double healthy = 0;
    MGFS_ASSERT(fed_read(importer, "/shared.h5", &healthy),
                "healthy federated read failed");
    fed_min = std::min(fed_min, healthy);
    for (std::size_t exporter = 0; exporter < 4; ++exporter) {
      if (importer == exporter) continue;
      fedfs.set_nsd_down(static_cast<std::uint32_t>(exporter), true);
      fdevs[exporter]->set_failed(true);
      double dark = 0;
      MGFS_ASSERT(fed_read(importer, "/shared.h5", &dark),
                  "replicated read with a dark site failed");
      dark_min = std::min(dark_min, dark);
      fdevs[exporter]->set_failed(false);
      fedfs.set_nsd_down(static_cast<std::uint32_t>(exporter), false);
      std::cout << "  " << std::setw(7) << names[importer] << " <- "
                << std::setw(7) << names[exporter] << "      "
                << std::setw(7) << direct[importer][exporter] << "  "
                << std::setw(7) << healthy << "  " << std::setw(7) << dark
                << " MB/s\n";
    }
  }

  // The single-copy control: dark CINECA's NSD and the striped
  // /single.h5 becomes unreadable — the read fails instead of
  // redirecting.
  fedfs.set_nsd_down(0, true);
  fdevs[0]->set_failed(true);
  const bool single_ok = fed_read(1, "/single.h5", nullptr);
  MGFS_ASSERT(!single_ok, "single-copy read should fail with its site dark");
  fdevs[0]->set_failed(false);
  fedfs.set_nsd_down(0, false);
  MGFS_ASSERT(fedfs.fsck().clean(), "federated fs left metadata dirty");

  std::cout << std::defaultfloat;
  std::cout << "\nSummary (paper §7):\n";
  bench::report("slowest site pair", min_rate, 100.0, "MB/s");
  bench::report("fastest site pair", max_rate, 117.0, "MB/s");
  bench::report("2-copy read, all sites up", fed_min, 100.0, "MB/s");
  bench::report("2-copy read, one site dark", dark_min, 100.0, "MB/s");
  std::cout << "  single-copy read with its site dark: FAILS (control); "
               "2-copy reads ride the nearest surviving replica\n";
  std::cout << "  the only limiting factors are the 1 Gb/s WAN and disk "
               "I/O bandwidth — as the paper reports\n";
  return 0;
}
