// Client-side namespace pass-throughs (mkdir / readdir / rename /
// unlink) and the operational log hooks.
#include <gtest/gtest.h>

#include "common/log.hpp"
#include "gpfs_test_util.hpp"
#include "mgfs.hpp"  // umbrella header must compile standalone

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::kBob;
using testutil::MiniCluster;

TEST(ClientNamespace, MkdirReaddirRenameUnlink) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);

  std::optional<Status> mk;
  c->mkdir("/proj", kAlice, Mode{077}, [&](Status st) { mk = st; });
  mc.sim.run();
  ASSERT_TRUE(mk.has_value() && mk->ok());

  auto fh = mc.open(c, "/proj/run1.out", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());

  std::optional<Result<std::vector<std::string>>> ls;
  c->readdir("/proj", kAlice,
             [&](Result<std::vector<std::string>> r) { ls = std::move(r); });
  mc.sim.run();
  ASSERT_TRUE(ls.has_value() && ls->ok());
  EXPECT_EQ(**ls, (std::vector<std::string>{"run1.out"}));

  std::optional<Status> rn;
  c->rename("/proj/run1.out", "/proj/final.out", kAlice,
            [&](Status st) { rn = st; });
  mc.sim.run();
  ASSERT_TRUE(rn.has_value() && rn->ok());
  EXPECT_TRUE(mc.fs->ns().exists("/proj/final.out"));
  EXPECT_FALSE(mc.fs->ns().exists("/proj/run1.out"));

  std::optional<Status> ul;
  c->unlink("/proj/final.out", kAlice, [&](Status st) { ul = st; });
  mc.sim.run();
  ASSERT_TRUE(ul.has_value() && ul->ok());
  auto empty = mc.fs->ns().readdir("/proj", kAlice);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ClientNamespace, OpsOnUnmountedClientFailNotMounted) {
  // Path routing needs the file system, so every path op must refuse an
  // unmounted client up front (as open does) instead of reaching for it.
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  mc.cluster->unmount(c);
  ASSERT_FALSE(c->mounted());

  std::vector<Errc> codes;
  auto note = [&](const auto& r) {
    codes.push_back(r.ok() ? Errc::ok : r.error().code);
  };
  c->open("/f", kAlice, OpenFlags::create_rw(), note);
  c->stat("/f", note);
  c->mkdir("/d", kAlice, Mode{077}, note);
  c->readdir("/", kAlice, note);
  c->unlink("/f", kAlice, note);
  c->rename("/f", "/g", kAlice, note);
  mc.sim.run();
  EXPECT_EQ(codes, std::vector<Errc>(6, Errc::invalid_argument));
}

TEST(ClientNamespace, MkdirDeniedWithoutParentPermission) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  std::optional<Status> mk;
  c->mkdir("/locked", kAlice, Mode{060}, [&](Status st) { mk = st; });
  mc.sim.run();
  ASSERT_TRUE(mk.has_value() && mk->ok());
  std::optional<Status> mk2;
  c->mkdir("/locked/sub", kBob, Mode{077}, [&](Status st) { mk2 = st; });
  mc.sim.run();
  ASSERT_TRUE(mk2.has_value());
  EXPECT_EQ(mk2->code(), Errc::permission_denied);
}

TEST(ClientNamespace, FailoverEmitsWarnLog) {
  Logger& log = Logger::instance();
  log.capture(true);
  log.set_level(LogLevel::warn);
  {
    MiniCluster mc;
    Client* c = mc.mount_on(2);
    auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
    ASSERT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
    ASSERT_TRUE(mc.close(c, *fh).ok());
    Client* r = mc.mount_on(3);
    auto fr = mc.open(r, "/f", kAlice, OpenFlags::ro());
    mc.net.set_node_up(mc.site.hosts[0], false);
    ASSERT_TRUE(mc.read(r, *fr, 0, 4 * MiB).ok());
  }
  EXPECT_NE(Logger::instance().captured().find("failing over to backup"),
            std::string::npos);
  log.set_level(LogLevel::off);
  log.capture(false);
}

}  // namespace
}  // namespace mgfs::gpfs
