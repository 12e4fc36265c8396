// T-hsm reproduction — §8 future work: the GFS disk as part of an HSM.
//
// "In our view it is much more satisfactory to allow an automatic,
// algorithmic approach where data is migrated to tape storage as it is
// less used and recalled when needed" — plus the "copyright library"
// paradigm: a guaranteed remote second copy (SDSC and PSC already
// archived for each other) from which local catastrophes are repaired.
//
// The bench fills a GFS-scale disk cache with Enzo-sized dumps,
// lets water-mark migration run, replays a recall-heavy access pattern,
// then destroys a primary tape volume and repairs from the mirror.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "hsm/hsm.hpp"

using namespace mgfs;

int main() {
  bench::banner("T-HSM", "§8: water-mark migration, recall, dual-copy "
                         "archive");

  sim::Simulator sim;
  // 10 TB of GFS disk cache; two silos (SDSC primary, PSC mirror) with
  // 4 drives each at the paper's 30 MB/s.
  storage::RateDevice disk(sim, 10 * TB, 2e9, 0.5e-3, "gfs-cache");
  gridftp::FileStore cache(disk);
  hsm::TapeSpec tspec;
  tspec.volume_capacity = 400 * GB;
  hsm::TapeLibrary sdsc_silo(sim, 4, tspec, "sdsc-silo");
  hsm::TapeLibrary psc_silo(sim, 4, tspec, "psc-silo");
  hsm::HsmConfig hcfg;
  hcfg.archive_piece = 100 * GB;
  hsm::HsmManager hsm(sim, cache, sdsc_silo, hcfg);
  hsm.set_mirror(&psc_silo);

  // Phase 1: ingest 48 dumps of 250 GB (12 TB offered into 10 TB of
  // disk), running the policy whenever the high water mark trips.
  std::cout << std::fixed << std::setprecision(2);
  const Bytes kDump = 250 * GB;
  auto run_policy = [&] {
    bench::must(bench::await(sim, &hsm, &hsm::HsmManager::run_policy),
                "policy failed");
  };
  std::size_t ingested = 0;
  for (std::size_t i = 0; i < 48; ++i) {
    const std::string name = "/enzo/dump" + std::to_string(i);
    Status st = hsm.ingest(name, kDump);
    if (!st.ok()) {
      run_policy();
      st = hsm.ingest(name, kDump);
    }
    MGFS_ASSERT(st.ok(), "ingest failed after policy");
    ++ingested;
    sim.run_until(sim.now() + 600);  // ten minutes between dumps
    if (hsm.fill_fraction() > 0.90) run_policy();
  }
  std::cout << "\n  ingested " << ingested << " dumps ("
            << ingested * kDump / 1e12 << " TB offered into "
            << disk.capacity() / 1e12 << " TB of disk)\n";
  std::cout << "  migrations to tape: " << hsm.migrations()
            << "   disk fill now: " << hsm.fill_fraction() * 100 << "%\n";
  std::cout << "  bytes on primary tape: " << sdsc_silo.bytes_on_tape() / 1e12
            << " TB, on mirror: " << psc_silo.bytes_on_tape() / 1e12
            << " TB (dual copy)\n";

  // Phase 2: recall pattern — researchers come back for old dumps.
  std::size_t recall_hits = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    const std::string name = "/enzo/dump" + std::to_string(i * 3);
    if (!hsm.resident(name)) ++recall_hits;
    bench::must(bench::await(sim, &hsm, &hsm::HsmManager::ensure_online, name),
                "recall failed");
    if (hsm.fill_fraction() > 0.90) run_policy();
  }
  std::cout << "\n  accessed 12 old dumps: " << recall_hits
            << " required tape recalls (" << hsm.recalls()
            << " recalls total)\n  ";
  hsm.recall_latency().print(std::cout, "s");
  std::cout << "  (a 250 GB dump at 30 MB/s tape streaming is ~"
            << 250e9 / 30e6 / 60 / hcfg.archive_piece * 100e9 / 60
            << " min/piece plus mount+locate — deep archive is minutes to "
               "hours, exactly why the disk tier matters)\n";

  // Phase 3: the copyright library. Destroy a primary volume, verify the
  // data is recovered transparently from the PSC mirror.
  sdsc_silo.lose_volume(0);
  sdsc_silo.lose_volume(1);
  std::size_t repaired = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::string name = "/enzo/dump" + std::to_string(i);
    if (hsm.resident(name)) continue;
    bench::must(bench::await(sim, &hsm, &hsm::HsmManager::ensure_online, name),
                "mirror recovery failed");
    ++repaired;
    if (hsm.fill_fraction() > 0.90) run_policy();
  }
  std::cout << "\n  destroyed primary volumes 0-1; " << repaired
            << " dumps recalled anyway, " << hsm.mirror_recalls()
            << " pieces served by the PSC mirror (the 'copyright library' "
               "second copy)\n";
  std::cout << std::defaultfloat;
  std::cout << "\nSummary (paper §8): migrate-when-cold + recall-on-access "
               "kept a 12 TB workload inside 10 TB of disk with zero "
               "manual allocation decisions, and a remote second copy "
               "absorbed the loss of primary media.\n";
  return 0;
}
