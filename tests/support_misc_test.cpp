#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/file.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/memo.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/time.hpp"

namespace pdc {
namespace {

namespace fs = std::filesystem;

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

TEST(Env, FlagAndInt) {
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
  ::setenv("PDC_TEST_KNOB", "99999999999", 1);
  EXPECT_EQ(env_int("PDC_TEST_KNOB", 7), 7);  // out of int range -> fallback, not a wrap
  ::unsetenv("PDC_TEST_KNOB");
}

TEST(File, MissingPathReadsAsNullopt) {
  EXPECT_EQ(read_file(fs::temp_directory_path() / "pdc_no_such_file_here"), std::nullopt);
}

TEST(File, AtomicWriteReplacesBytesAndLeavesNoTemp) {
  const fs::path path =
      fs::temp_directory_path() / ("pdc_file_test_" + std::to_string(::getpid()));
  write_file_atomic(path, "first, longer contents");
  write_file_atomic(path, "second");
  EXPECT_EQ(read_file(path), std::optional<std::string>("second"));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  fs::remove(path);
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
  EXPECT_EQ(memo.stats().entries, 1u);
  EXPECT_EQ(memo.stats().misses, 1u);
  EXPECT_EQ(memo.stats().hits, 7u);
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
  EXPECT_EQ(memo.stats().entries, 0u);
  const auto p = memo.get(7, [&] {
    ++derivations;
    return 5;
  });
  EXPECT_EQ(*p, 5);
  EXPECT_EQ(derivations, 2);
  EXPECT_EQ(memo.get(7, [] { return 6; }), p);
}

TEST(Memo, ThrowingDerivationReachesItsWaitersAndIsNotCached) {
  support::Memo<int, int> memo;
  constexpr int kWaiters = 3;
  std::atomic<int> failures{0};
  std::thread owner([&] {
    try {
      memo.get(1, [&]() -> int {
        // Waiters count as hits as they join the slot; fail once all have.
        const auto t0 = std::chrono::steady_clock::now();
        while (memo.stats().hits < kWaiters &&
               std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
          std::this_thread::yield();
        throw std::runtime_error("failed run");
      });
    } catch (const std::runtime_error&) {
      ++failures;
    }
  });
  while (memo.stats().misses == 0) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i)
    waiters.emplace_back([&] {
      try {
        memo.get(1, [] { return 0; });  // never runs: the slot is in flight
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "failed run") ++failures;
      }
    });
  for (std::thread& t : waiters) t.join();
  owner.join();
  EXPECT_EQ(failures, kWaiters + 1);
  const support::MemoStats s = memo.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(*memo.get(1, [] { return 9; }), 9);  // derived afresh
}

// The byte-budget tests charge key + value bytes, as the serve response
// cache does.
using StringMemo = support::Memo<std::string, std::string>;

StringMemo string_memo(std::size_t budget) {
  return StringMemo{
      [](const std::string& key, const std::string& value) { return key.size() + value.size(); },
      budget};
}

/// The value under `key`, deriving `value` on a miss.
std::string put(StringMemo& memo, const std::string& key, std::string value) {
  return *memo.get(key, [&] { return value; });
}

/// The resident value under `key`; a miss derives (and keeps) nothing.
std::optional<std::string> lookup(StringMemo& memo, const std::string& key) {
  struct Absent {};
  try {
    return *memo.get(key, []() -> std::string { throw Absent{}; });
  } catch (const Absent&) {
    return std::nullopt;
  }
}

TEST(Memo, CountsHitsAndMisses) {
  StringMemo memo = string_memo(1 << 20);
  EXPECT_EQ(put(memo, "a", "alpha"), "alpha");
  EXPECT_EQ(put(memo, "a", "other"), "alpha");  // a hit derives nothing
  const support::MemoStats s = memo.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.bytes, std::string("a").size() + std::string("alpha").size());
  EXPECT_EQ(s.budget_bytes, std::size_t{1} << 20);
}

TEST(Memo, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry charges key (1) + value (10) = 11 bytes; budget fits two.
  StringMemo memo = string_memo(22);
  const std::string ten(10, 'x');
  put(memo, "a", ten);
  put(memo, "b", ten);
  ASSERT_TRUE(lookup(memo, "a").has_value());  // refresh a: b is now LRU
  put(memo, "c", ten);                          // evicts b
  EXPECT_TRUE(lookup(memo, "a").has_value());
  EXPECT_FALSE(lookup(memo, "b").has_value());
  EXPECT_TRUE(lookup(memo, "c").has_value());
  const support::MemoStats s = memo.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, s.budget_bytes);
}

TEST(Memo, OversizedEntriesAreReturnedNotKeptAndEvictNothing) {
  StringMemo memo = string_memo(32);
  put(memo, "keep", "1234");
  EXPECT_EQ(put(memo, "huge", std::string(1000, 'z')).size(), 1000u);
  EXPECT_TRUE(lookup(memo, "keep").has_value());
  EXPECT_FALSE(lookup(memo, "huge").has_value());
  const support::MemoStats s = memo.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.bytes, std::string("keep").size() + std::string("1234").size());
}

// The bytes counter must equal the footprint of the live entries after any
// interleaving of inserts, hits, evictions, oversized entries and failed
// derivations.
TEST(Memo, BytesMatchLiveEntriesThroughAllTransitions) {
  StringMemo memo = string_memo(40);
  const auto live_bytes = [&memo](std::initializer_list<const char*> keys) {
    std::size_t total = 0;
    for (const char* k : keys)
      if (const auto v = lookup(memo, k)) total += std::string(k).size() + v->size();
    return total;
  };
  put(memo, "a", "12345");  // 6
  put(memo, "b", "12345");  // 6
  EXPECT_EQ(memo.stats().bytes, live_bytes({"a", "b"}));
  put(memo, "c", std::string(20, 'y'));  // 21: fits beside a and b
  EXPECT_EQ(memo.stats().bytes, live_bytes({"a", "b", "c"}));
  put(memo, "d", std::string(30, 'w'));  // 31: evicts down to fit
  EXPECT_EQ(memo.stats().bytes, live_bytes({"a", "b", "c", "d"}));
  put(memo, "e", std::string(64, 'z'));  // oversized: not kept
  EXPECT_EQ(memo.stats().bytes, live_bytes({"a", "b", "c", "d", "e"}));
  EXPECT_FALSE(lookup(memo, "f").has_value());  // failed derivation
  EXPECT_EQ(memo.stats().bytes, live_bytes({"a", "b", "c", "d", "e", "f"}));
  EXPECT_GT(memo.stats().evictions, 0u);
  EXPECT_LE(memo.stats().bytes, memo.stats().budget_bytes);
}

TEST(Memo, ZeroBudgetKeepsNothing) {
  StringMemo memo = string_memo(0);
  EXPECT_EQ(put(memo, "a", "b"), "b");
  EXPECT_FALSE(lookup(memo, "a").has_value());
  const support::MemoStats s = memo.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.insertions, 0u);
}

}  // namespace
}  // namespace pdc
