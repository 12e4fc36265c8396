// End-to-end multi-cluster tests: the §6 protocol over a simulated
// TeraGrid — mmauth key exchange, mutual handshake, per-FS ro/rw grants,
// cipherList modes, and cross-country data flow.
#include <gtest/gtest.h>

#include <optional>

#include "gpfs/cluster.hpp"
#include "net/presets.hpp"
#include "storage/block_device.hpp"

namespace mgfs::gpfs {
namespace {

const Principal kAlice{"/CN=alice", 501, 100, false};

struct GridFixture : ::testing::Test {
  // Concrete so tests can build throwaway instances (the cipher A/B
  // comparison constructs two independent worlds).
  void TestBody() override {}

  sim::Simulator sim;
  net::Network net{sim};
  net::TeraGrid tg = net::make_teragrid_2004(net);
  std::vector<std::unique_ptr<storage::RateDevice>> devices;
  std::unique_ptr<Cluster> sdsc;
  std::unique_ptr<Cluster> ncsa;
  FileSystem* fs = nullptr;

  void build(auth::CipherList sdsc_cipher = auth::CipherList::authonly) {
    ClusterConfig scfg;
    scfg.name = "sdsc";
    scfg.cipher = sdsc_cipher;
    sdsc = std::make_unique<Cluster>(sim, net, scfg, Rng(11));
    for (net::NodeId h : tg.sdsc.hosts) sdsc->add_node(h);
    sdsc->add_nsd_server(tg.sdsc.hosts[0]);
    sdsc->add_nsd_server(tg.sdsc.hosts[1]);
    std::vector<std::uint32_t> ids;
    for (int i = 0; i < 4; ++i) {
      devices.push_back(std::make_unique<storage::RateDevice>(
          sim, 64 * GiB, 200e6));
      ids.push_back(sdsc->create_nsd("nsd" + std::to_string(i),
                                     devices.back().get(),
                                     tg.sdsc.hosts[i % 2],
                                     tg.sdsc.hosts[(i + 1) % 2]));
    }
    fs = &sdsc->create_filesystem("gpfs-wan", ids, 1 * MiB,
                                  tg.sdsc.hosts[0]);

    ClusterConfig ncfg;
    ncfg.name = "ncsa";
    ncsa = std::make_unique<Cluster>(sim, net, ncfg, Rng(22));
    for (net::NodeId h : tg.ncsa.hosts) ncsa->add_node(h);
  }

  /// Out-of-band key exchange + mmauth/mmremote* on both ends.
  void establish_trust(auth::AccessMode mode) {
    sdsc->mmauth_add("ncsa", ncsa->public_key());
    ASSERT_TRUE(sdsc->mmauth_grant("ncsa", "gpfs-wan", mode).ok());
    ASSERT_TRUE(ncsa->mmremotecluster_add("sdsc", sdsc->public_key(),
                                          sdsc.get(), tg.sdsc.hosts[0])
                    .ok());
    ASSERT_TRUE(ncsa->mmremotefs_add("/gpfs-wan", "sdsc", "gpfs-wan").ok());
  }

  Result<Client*> mount_remote(std::size_t ncsa_host = 2) {
    std::optional<Result<Client*>> out;
    ncsa->mount_remote("/gpfs-wan", tg.ncsa.hosts[ncsa_host],
                       [&](Result<Client*> r) { out = std::move(r); });
    sim.run();
    EXPECT_TRUE(out.has_value()) << "mount_remote never completed";
    return out.has_value() ? std::move(*out)
                           : Result<Client*>(Errc::timed_out, "hang");
  }

  Result<Bytes> read(Client* c, Fh fh, Bytes off, Bytes len) {
    std::optional<Result<Bytes>> out;
    c->read(fh, off, len, [&](Result<Bytes> r) { out = std::move(r); });
    sim.run();
    return out.has_value() ? std::move(*out)
                           : Result<Bytes>(Errc::timed_out, "hang");
  }

  Result<Bytes> write(Client* c, Fh fh, Bytes off, Bytes len) {
    std::optional<Result<Bytes>> out;
    c->write(fh, off, len, [&](Result<Bytes> r) { out = std::move(r); });
    sim.run();
    return out.has_value() ? std::move(*out)
                           : Result<Bytes>(Errc::timed_out, "hang");
  }

  Result<Fh> open(Client* c, const std::string& path, OpenFlags flags) {
    std::optional<Result<Fh>> out;
    c->open(path, kAlice, flags, [&](Result<Fh> r) { out = std::move(r); });
    sim.run();
    return out.has_value() ? std::move(*out)
                           : Result<Fh>(Errc::timed_out, "hang");
  }

  /// Seed a file from an SDSC-local client.
  void seed(const std::string& path, Bytes len) {
    auto local = sdsc->mount("gpfs-wan", tg.sdsc.hosts[2]);
    ASSERT_TRUE(local.ok());
    auto fh = open(*local, path, OpenFlags::create_rw());
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(write(*local, *fh, 0, len).ok());
    std::optional<Status> st;
    (*local)->close(*fh, [&](Status s) { st = s; });
    sim.run();
    ASSERT_TRUE(st.has_value() && st->ok());
    // Unmount so the seeder's cached whole-file token releases — remote
    // readers then get whole-file tokens instead of per-range revokes.
    sdsc->unmount(*local);
  }
};

TEST_F(GridFixture, RemoteMountHappyPath) {
  build();
  establish_trust(auth::AccessMode::read_write);
  auto c = mount_remote();
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  EXPECT_EQ(ncsa->handshakes_completed(), 1u);
  EXPECT_EQ((*c)->access(), AccessMode::read_write);
}

TEST_F(GridFixture, RemoteReadCrossCountry) {
  build();
  establish_trust(auth::AccessMode::read_only);
  seed("/sky.fits", 16 * MiB);
  auto c = mount_remote();
  ASSERT_TRUE(c.ok());
  auto fh = open(*c, "/sky.fits", OpenFlags::ro());
  ASSERT_TRUE(fh.ok()) << fh.error().to_string();
  auto r = read(*c, *fh, 0, 16 * MiB);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, 16 * MiB);
  EXPECT_EQ((*c)->bytes_read_remote(), 16 * MiB);
}

TEST_F(GridFixture, UngrantedClusterRefused) {
  build();
  // mmauth add but no grant.
  sdsc->mmauth_add("ncsa", ncsa->public_key());
  ASSERT_TRUE(ncsa->mmremotecluster_add("sdsc", sdsc->public_key(),
                                        sdsc.get(), tg.sdsc.hosts[0])
                  .ok());
  ASSERT_TRUE(ncsa->mmremotefs_add("/gpfs-wan", "sdsc", "gpfs-wan").ok());
  auto c = mount_remote();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.code(), Errc::not_authorized);
}

TEST_F(GridFixture, UnknownClusterRefusedAtChallenge) {
  build();
  // SDSC never ran mmauth add for ncsa.
  ASSERT_TRUE(ncsa->mmremotecluster_add("sdsc", sdsc->public_key(),
                                        sdsc.get(), tg.sdsc.hosts[0])
                  .ok());
  ASSERT_TRUE(ncsa->mmremotefs_add("/gpfs-wan", "sdsc", "gpfs-wan").ok());
  auto c = mount_remote();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.code(), Errc::not_authorized);
}

TEST_F(GridFixture, WrongServerKeyFailsMutualAuth) {
  build();
  establish_trust(auth::AccessMode::read_write);
  // The admin fat-fingers the out-of-band exchange: registers NCSA's own
  // key as SDSC's. The server's proof cannot verify.
  ASSERT_TRUE(ncsa->mmremotecluster_add("sdsc", ncsa->public_key(),
                                        sdsc.get(), tg.sdsc.hosts[0])
                  .ok());
  auto c = mount_remote();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.code(), Errc::not_authenticated);
}

TEST_F(GridFixture, ReadOnlyGrantBlocksWrites) {
  build();
  establish_trust(auth::AccessMode::read_only);
  seed("/data", 4 * MiB);
  auto c = mount_remote();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->access(), AccessMode::read_only);
  auto fh = open(*c, "/data", OpenFlags::rw());
  ASSERT_FALSE(fh.ok());
  EXPECT_EQ(fh.code(), Errc::read_only);
  // Reads still fine.
  auto ro = open(*c, "/data", OpenFlags::ro());
  ASSERT_TRUE(ro.ok());
  EXPECT_TRUE(read(*c, *ro, 0, 4 * MiB).ok());
}

TEST_F(GridFixture, GrantUpgradeEnablesWrites) {
  build();
  establish_trust(auth::AccessMode::read_write);
  auto c = mount_remote();
  ASSERT_TRUE(c.ok());
  auto fh = open(*c, "/fromncsa", OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok()) << fh.error().to_string();
  auto w = write(*c, *fh, 0, 8 * MiB);
  ASSERT_TRUE(w.ok());
  std::optional<Status> st;
  (*c)->fsync(*fh, [&](Status s) { st = s; });
  sim.run();
  ASSERT_TRUE(st.has_value() && st->ok());
  // The file exists on SDSC's namespace with the grid identity.
  auto info = fs->ns().stat("/fromncsa");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 8 * MiB);
  EXPECT_EQ(info->owner_dn, "/CN=alice");
}

TEST_F(GridFixture, RevokedGrantStopsNewMounts) {
  build();
  establish_trust(auth::AccessMode::read_write);
  ASSERT_TRUE(mount_remote().ok());
  sdsc->mmauth_deny("ncsa", "gpfs-wan");
  auto c2 = mount_remote(3);
  ASSERT_FALSE(c2.ok());
  EXPECT_EQ(c2.code(), Errc::not_authorized);
}

TEST_F(GridFixture, EncryptCipherSlowsDataPath) {
  // cipherList=encrypt charges both endpoints per byte; the same remote
  // read takes measurably longer than with AUTHONLY.
  auto run = [&](auth::CipherList cipher) {
    GridFixture f;
    f.build(cipher);
    f.establish_trust(auth::AccessMode::read_only);
    f.seed("/blob", 32 * MiB);
    auto c = f.mount_remote();
    EXPECT_TRUE(c.ok());
    auto fh = f.open(*c, "/blob", OpenFlags::ro());
    EXPECT_TRUE(fh.ok());
    const double t0 = f.sim.now();
    EXPECT_TRUE(f.read(*c, *fh, 0, 32 * MiB).ok());
    return f.sim.now() - t0;
  };
  const double plain = run(auth::CipherList::authonly);
  const double enc = run(auth::CipherList::encrypt);
  // On GbE clients the 150 MB/s software cipher is NOT the bottleneck —
  // the paper-era reality — so the penalty is per-block latency only.
  // The configuration where encryption binds (10 GbE) is demonstrated by
  // bench/tab_auth_modes.
  EXPECT_GT(enc, plain + 0.004);
}

// A remote-mounted client that is expelled rejoins through the exporting
// cluster, and one whose node restarts is re-registered there; both
// times it keeps the read-only grant it was mounted under.
TEST_F(GridFixture, RemoteClientRejoinsThroughExporterUnderItsGrant) {
  build();
  establish_trust(auth::AccessMode::read_only);
  seed("/data", 4 * MiB);
  auto c = mount_remote();
  ASSERT_TRUE(c.ok());
  Client* client = *c;
  EXPECT_EQ(sdsc->access_of_client(client->id()), AccessMode::read_only);
  const std::uint64_t mounted_epoch = client->lease_epoch();

  // Expel: the MountRecord goes, the next op surfaces stale, and the
  // client rejoins via sdsc under a fresh epoch.
  fs->expel_client(client->id(), "test: expel remote client");
  EXPECT_EQ(sdsc->access_of_client(client->id()), AccessMode::none);
  auto stale = open(client, "/data", OpenFlags::ro());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), Errc::stale);
  const std::uint64_t rejoined_epoch = client->lease_epoch();
  EXPECT_GT(rejoined_epoch, mounted_epoch);
  EXPECT_EQ(sdsc->access_of_client(client->id()), AccessMode::read_only);
  auto ro = open(client, "/data", OpenFlags::ro());
  ASSERT_TRUE(ro.ok()) << ro.error().to_string();
  EXPECT_EQ(open(client, "/fromncsa", OpenFlags::create_rw()).code(),
            Errc::read_only);

  // Node restart: ncsa hands the client to its exporter, which expels
  // the old incarnation and re-registers it under the same grant.
  const std::uint64_t expels_before = fs->expels();
  ncsa->on_node_restart(client->node());
  sim.run();
  EXPECT_EQ(fs->expels(), expels_before + 1);
  EXPECT_GT(client->lease_epoch(), rejoined_epoch);
  EXPECT_EQ(sdsc->access_of_client(client->id()), AccessMode::read_only);
  auto after = open(client, "/data", OpenFlags::ro());
  ASSERT_TRUE(after.ok()) << after.error().to_string();
  EXPECT_TRUE(read(client, *after, 0, 4 * MiB).ok());
  EXPECT_EQ(open(client, "/fromncsa", OpenFlags::create_rw()).code(),
            Errc::read_only);
}

TEST_F(GridFixture, WholeFileTokenMakesRemoteStreamingCheap) {
  build();
  establish_trust(auth::AccessMode::read_only);
  seed("/stream", 64 * MiB);
  auto c = mount_remote();
  ASSERT_TRUE(c.ok());
  auto fh = open(*c, "/stream", OpenFlags::ro());
  ASSERT_TRUE(fh.ok());
  const std::uint64_t grants_before = fs->tokens_granted();
  for (Bytes off = 0; off < 64 * MiB; off += 8 * MiB) {
    ASSERT_TRUE(read(*c, *fh, off, 8 * MiB).ok());
  }
  // One token grant covered the whole streaming read.
  EXPECT_LE(fs->tokens_granted() - grants_before, 1u);
}

}  // namespace
}  // namespace mgfs::gpfs
