#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/memo.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/time.hpp"

namespace pdc {
namespace {

TEST(Json, WriterProducesParseableDocument) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "a \"quoted\"\nstring");
  w.kv("count", 42);
  w.kv("pi", 3.141592653589793);
  w.kv("big", std::uint64_t{1} << 60);
  w.kv("flag", true);
  w.key("items").begin_array().value(1).value("two").null().end_array();
  w.key("empty_obj").begin_object().end_object();
  w.key("empty_arr").begin_array().end_array();
  w.end_object();
  const JsonValue doc = parse_json(w.str());
  EXPECT_EQ(doc.at("name").as_string(), "a \"quoted\"\nstring");
  EXPECT_DOUBLE_EQ(doc.at("count").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(doc.at("pi").as_double(), 3.141592653589793);
  EXPECT_TRUE(doc.at("flag").as_bool());
  ASSERT_EQ(doc.at("items").as_array().size(), 3u);
  EXPECT_TRUE(doc.at("items").as_array()[2].is_null());
  EXPECT_TRUE(doc.at("empty_obj").as_object().empty());
  EXPECT_TRUE(doc.at("empty_arr").as_array().empty());
}

TEST(Json, DoublesRoundTripExactly) {
  for (double v : {0.0, -1.5, 1.0 / 3.0, 1e-300, 123456789.123456789, 2.5e9}) {
    JsonWriter w;
    w.begin_array().value(v).end_array();
    EXPECT_EQ(parse_json(w.str()).as_array()[0].as_double(), v);
  }
  JsonWriter w;
  w.begin_array().value(std::nan("")).end_array();  // non-finite -> null
  EXPECT_TRUE(parse_json(w.str()).as_array()[0].is_null());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("[1,]"), JsonError);
  EXPECT_THROW(parse_json("[1] trailing"), JsonError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonError);
  EXPECT_THROW(parse_json("tru"), JsonError);
}

TEST(Env, FlagIntAndDouble) {
  ::setenv("PDC_TEST_KNOB", "1", 1);
  EXPECT_TRUE(env_flag("PDC_TEST_KNOB"));
  ::setenv("PDC_TEST_KNOB", "0", 1);
  EXPECT_FALSE(env_flag("PDC_TEST_KNOB"));
  ::unsetenv("PDC_TEST_KNOB");
  EXPECT_FALSE(env_flag("PDC_TEST_KNOB"));
  EXPECT_TRUE(env_flag("PDC_TEST_KNOB", true));
  EXPECT_EQ(env_int("PDC_TEST_KNOB", 7), 7);
  ::setenv("PDC_TEST_KNOB", "123", 1);
  EXPECT_EQ(env_int("PDC_TEST_KNOB", 7), 123);
  ::setenv("PDC_TEST_KNOB", "12x", 1);
  EXPECT_EQ(env_int("PDC_TEST_KNOB", 7), 7);  // malformed -> fallback
  ::setenv("PDC_TEST_KNOB", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("PDC_TEST_KNOB", 1.0), 2.5);
  ::unsetenv("PDC_TEST_KNOB");
}

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(to_ns(1.0), 1000000000u);
  EXPECT_EQ(to_ns(1.5 * units::us), 1500u);
  EXPECT_EQ(to_ns(0.0), 0u);
  EXPECT_EQ(to_ns(-1.0), 0u);  // clamped
  EXPECT_DOUBLE_EQ(from_ns(2500), 2.5e-6);
  EXPECT_DOUBLE_EQ(from_ns(to_ns(0.123456789)), 0.123456789);
}

TEST(TimeUnits, BandwidthConstants) {
  EXPECT_DOUBLE_EQ(units::Gbps, 125.0e6);   // 1 Gbit/s = 125 MB/s
  EXPECT_DOUBLE_EQ(units::Mbps, 125.0e3);
  EXPECT_DOUBLE_EQ(8.0 * units::KiB, 8192.0);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng{1};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformDoubleStaysInRange) {
  Rng rng{2};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(5.0, 10.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 10.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{3};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::vector<int> resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, SplitStreamsDiverge) {
  Rng a{9};
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Peers", "Time [s]"});
  t.add_row({"2", TextTable::num(42.123, 2)});
  t.add_row({"32", TextTable::num(7.5, 2)});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Peers | Time [s] |"), std::string::npos);
  EXPECT_NE(out.find("| 2     | 42.12    |"), std::string::npos);
  EXPECT_NE(out.find("| 32    | 7.50     |"), std::string::npos);
}

TEST(TextTable, PadsMissingCells) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NE(t.render().find("| 1 |   |   |"), std::string::npos);
}

TEST(Csv, EscapesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WriterEnforcesColumnCount) {
  CsvWriter csv({"name", "value"});
  csv.row({"x", "1"});
  csv.row({"with,comma", "2"});
  EXPECT_EQ(csv.str(), "name,value\nx,1\n\"with,comma\",2\n");
  EXPECT_THROW(csv.row({"too", "many", "cells"}), std::invalid_argument);
}

TEST(LogRunTag, NestsAndRestores) {
  EXPECT_EQ(log_run_tag(), "");
  {
    LogRunTag outer{"outer-run"};
    EXPECT_EQ(log_run_tag(), "outer-run");
    {
      LogRunTag inner{"inner-run"};
      EXPECT_EQ(log_run_tag(), "inner-run");
    }
    EXPECT_EQ(log_run_tag(), "outer-run");
  }
  EXPECT_EQ(log_run_tag(), "");
}

TEST(Memo, SameKeyDerivesOnceAndSharesOnePointer) {
  support::Memo<int, int> memo;
  std::atomic<int> derivations{0};
  std::atomic<bool> go{false};
  std::vector<support::Memo<int, int>::Ptr> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i)
    threads.emplace_back([&, i] {
      while (!go) std::this_thread::yield();
      got[i] = memo.get(1, [&] {
        ++derivations;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
      });
    });
  go = true;
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(derivations, 1);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p, got[0]);
    EXPECT_EQ(*p, 42);
  }
  EXPECT_EQ(memo.values().size(), 1u);
}

TEST(Memo, DistinctKeysDeriveConcurrently) {
  // Each deriver waits for the other to arrive. Under a lock held across
  // derivation the first one times out (and the test fails) instead of
  // hanging.
  support::Memo<int, bool> memo;
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    cv.notify_all();
    return cv.wait_for(lock, std::chrono::seconds(10), [&] { return arrived == 2; });
  };
  support::Memo<int, bool>::Ptr a, b;
  std::thread ta([&] { a = memo.get(1, rendezvous); });
  std::thread tb([&] { b = memo.get(2, rendezvous); });
  ta.join();
  tb.join();
  EXPECT_TRUE(*a);
  EXPECT_TRUE(*b);
}

TEST(Memo, ThrowingDerivationIsRetriedNotCached) {
  support::Memo<int, int> memo;
  int derivations = 0;
  EXPECT_THROW(memo.get(7,
                        [&]() -> int {
                          ++derivations;
                          throw std::runtime_error("transient");
                        }),
               std::runtime_error);
  EXPECT_TRUE(memo.values().empty());
  const auto p = memo.get(7, [&] {
    ++derivations;
    return 5;
  });
  EXPECT_EQ(*p, 5);
  EXPECT_EQ(derivations, 2);
  EXPECT_EQ(memo.get(7, [] { return 6; }), p);
}

}  // namespace
}  // namespace pdc
