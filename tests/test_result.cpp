#include "common/result.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fan_in.hpp"

namespace mgfs {
namespace {

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.code(), Errc::ok);
}

TEST(Result, HoldsError) {
  Result<int> r = err(Errc::not_found, "no such file");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::not_found);
  EXPECT_EQ(r.error().detail, "no such file");
}

TEST(Result, ErrcConstructor) {
  Result<std::string> r(Errc::permission_denied, "uid 1001");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().to_string(), "permission_denied: uid 1001");
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

TEST(Result, ArrowOperator) {
  Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.to_string(), "ok");
}

TEST(Status, CarriesError) {
  Status st(Errc::no_space, "nsd 3 full");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errc::no_space);
  EXPECT_EQ(st.to_string(), "no_space: nsd 3 full");
}

TEST(Errc, NamesAreStable) {
  EXPECT_STREQ(errc_name(Errc::ok), "ok");
  EXPECT_STREQ(errc_name(Errc::not_authorized), "not_authorized");
  EXPECT_STREQ(errc_name(Errc::not_authenticated), "not_authenticated");
  EXPECT_STREQ(errc_name(Errc::read_only), "read_only");
  EXPECT_STREQ(errc_name(Errc::stale), "stale");
  EXPECT_STREQ(errc_name(Errc::timed_out), "timed_out");
}

class ErrcNameProperty : public ::testing::TestWithParam<Errc> {};

TEST_P(ErrcNameProperty, EveryCodeHasDistinctName) {
  EXPECT_STRNE(errc_name(GetParam()), "unknown");
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, ErrcNameProperty,
    ::testing::Values(Errc::ok, Errc::not_found, Errc::exists,
                      Errc::permission_denied, Errc::not_authorized,
                      Errc::not_authenticated, Errc::read_only, Errc::no_space,
                      Errc::io_error, Errc::unavailable, Errc::invalid_argument,
                      Errc::not_a_directory, Errc::is_a_directory,
                      Errc::not_empty, Errc::stale, Errc::timed_out));

TEST(FanIn, FirstErrorWins) {
  std::vector<Status> fired;
  FanIn join(4, [&](Status st) { fired.push_back(st); });
  join(Status{});
  join(Status(Errc::io_error, "first"));
  join(Status(Errc::unavailable, "second"));
  join(Status{});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].code(), Errc::io_error);
  EXPECT_EQ(fired[0].error().detail, "first");
}

TEST(FanIn, FiresExactlyOnceAfterLastArrival) {
  int fired = 0;
  Status got(Errc::stale);
  FanIn join(3, [&](Status st) {
    ++fired;
    got = st;
  });
  // Copies share one count, as when each operation holds its own copy.
  std::vector<std::function<void(const Status&)>> arrivals(3, join);
  arrivals[0](Status{});
  EXPECT_EQ(fired, 0);
  arrivals[1](Status{});
  EXPECT_EQ(fired, 0);
  arrivals[2](Status{});
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(got.ok());
}

TEST(FanIn, CountOnlyArrivals) {
  int fired = 0;
  FanIn join(2, [&](Status st) {
    EXPECT_TRUE(st.ok());
    ++fired;
  });
  std::function<void()> arrive = join;
  arrive();
  EXPECT_EQ(fired, 0);
  join();
  EXPECT_EQ(fired, 1);
}

TEST(FanIn, ReleasesCompletionWithLastCopy) {
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  {
    FanIn join(1, [held = std::move(sentinel)](Status) { ++*held; });
    EXPECT_FALSE(watch.expired());
    join();
    // The completion ran and was dropped: nothing it captured lingers.
    EXPECT_TRUE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace mgfs
