// Tests for ehw/common: RNG determinism and distribution sanity, running
// statistics, tables, CLI parsing, JSON, thread pool, build version.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <latch>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ehw/common/cli.hpp"
#include "ehw/common/json.hpp"
#include "ehw/common/rng.hpp"
#include "ehw/common/stats.hpp"
#include "ehw/common/table.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/common/version.hpp"

namespace ehw {
namespace {

// --- Json -------------------------------------------------------------------

TEST(Json, BuildsAndDumpsCompactFrames) {
  Json frame = Json::object();
  frame.set("op", "submit");
  frame.set("ok", true);
  frame.set("count", 42);
  frame.set("rate", 0.25);
  frame.set("note", nullptr);
  Json jobs = Json::array();
  jobs.push_back(std::uint64_t{1});
  jobs.push_back("two");
  frame.set("jobs", std::move(jobs));
  EXPECT_EQ(frame.dump(),
            R"({"op":"submit","ok":true,"count":42,"rate":0.25,)"
            R"("note":null,"jobs":[1,"two"]})");
  // set() replaces in place rather than appending a duplicate.
  frame.set("count", 43);
  EXPECT_EQ(frame.get_number("count", 0), 43.0);
}

TEST(Json, ParseRoundTripsEveryValueKind) {
  const std::string wire =
      R"({"s":"a\"b\\c\nAé","n":-12.5,"i":9007199254740992,)"
      R"("b":false,"z":null,"a":[1,[2,{"k":3}]],"o":{}})";
  const Json parsed = Json::parse(wire);
  EXPECT_EQ(parsed.get_string("s", ""), "a\"b\\c\nA\xC3\xA9");
  EXPECT_EQ(parsed.get_number("n", 0), -12.5);
  EXPECT_EQ(parsed.get_number("i", 0), 9007199254740992.0);
  EXPECT_FALSE(parsed.get_bool("b", true));
  ASSERT_NE(parsed.get("z"), nullptr);
  EXPECT_TRUE(parsed.get("z")->is_null());
  EXPECT_EQ(parsed.get("a")->as_array()[1].as_array()[1].get_number("k", 0),
            3.0);
  // dump() -> parse() is a fixed point.
  EXPECT_EQ(Json::parse(parsed.dump()), parsed);
}

TEST(Json, ParseHandlesSurrogatePairsAndEscapedOutput) {
  const Json parsed = Json::parse(R"("😀")");  // 😀 U+1F600
  EXPECT_EQ(parsed.as_string(), "\xF0\x9F\x98\x80");
  // Control characters are escaped on output, so frames stay one line.
  const Json newline(std::string("a\nb\x01"));
  EXPECT_EQ(newline.dump(), "\"a\\nb\\u0001\"");
  EXPECT_EQ(Json::parse(newline.dump()), newline);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("[1 2]"), JsonError);
  EXPECT_THROW(Json::parse("042"), JsonError);
  EXPECT_THROW(Json::parse("1.2.3"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("\"bad \\x escape\""), JsonError);
  EXPECT_THROW(Json::parse("\"lone \\ud800 surrogate\""), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse("\"raw\ncontrol\""), JsonError);
  // Overflow to inf must be rejected, not silently dumped as null.
  EXPECT_THROW(Json::parse("1e400"), JsonError);
  EXPECT_THROW(Json::parse("-1e400"), JsonError);
  // Nesting bomb: bounded depth instead of a stack overflow.
  EXPECT_THROW(Json::parse(std::string(1000, '[')), JsonError);
  // Type errors on accessors are JsonError too.
  EXPECT_THROW(static_cast<void>(Json(1.0).as_string()), JsonError);
  EXPECT_THROW(static_cast<void>(Json("x").as_array()), JsonError);
}

TEST(Json, NumberEmissionIsExactForIntegersAndRoundTripsDoubles) {
  EXPECT_EQ(Json(std::uint64_t{9007199254740992ULL}).dump(),
            "9007199254740992");  // 2^53, the exactness edge
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  const double tricky = 1.0 / 3.0;
  EXPECT_EQ(Json::parse(Json(tricky).dump()).as_number(), tricky);
  EXPECT_TRUE(json_number_is_exact_int(42.0));
  EXPECT_FALSE(json_number_is_exact_int(0.5));
  EXPECT_FALSE(json_number_is_exact_int(1e300));
}

TEST(Version, IsNonEmptyAndMatchesComponents) {
  const std::string version = kVersion;
  EXPECT_EQ(version, std::to_string(kVersionMajor) + "." +
                         std::to_string(kVersionMinor) + "." +
                         std::to_string(kVersionPatch));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(123), b(124);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 9ull, 16ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(9));
  EXPECT_EQ(seen.size(), 9u);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(77);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(HashMix, DependsOnAllArguments) {
  EXPECT_NE(hash_mix(1, 2, 3, 4), hash_mix(1, 2, 3, 5));
  EXPECT_NE(hash_mix(1, 2, 3, 4), hash_mix(1, 2, 4, 4));
  EXPECT_NE(hash_mix(1, 2, 3, 4), hash_mix(2, 2, 3, 4));
  EXPECT_EQ(hash_mix(1, 2, 3, 4), hash_mix(1, 2, 3, 4));
}

TEST(RunningStats, MatchesBatchFormulas) {
  RunningStats s;
  const std::vector<double> xs{1.0, 2.0, 2.5, -4.0, 8.0, 0.5};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean_of(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), stddev_of(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -4.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10;
    all.add(x);
    (i < 25 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50), 25);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  // Column widths: "alpha" (5) and "value" (5).
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22.5  |"), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--full",       "--runs=5", "--size", "128",
                        "pos1", "--rate=0.25"};
  Cli cli(7, argv);
  EXPECT_TRUE(cli.has("full"));
  EXPECT_FALSE(cli.has("absent"));
  EXPECT_EQ(cli.get_int("runs", 0), 5);
  EXPECT_EQ(cli.get_int("size", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0), 0.25);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_chunks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_chunks(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SubmitReturnsValue) {
  // submit() is fire-and-forget: a task hands its value back through
  // whatever the submitter gave it, here a promise.
  ThreadPool pool(2);
  std::promise<int> answer;
  std::future<int> fut = answer.get_future();
  pool.submit([&answer] { answer.set_value(41 + 1); });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelChunksCoverDisjointly) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);  // prime: uneven last chunk
  pool.parallel_chunks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelChunksPropagatesExceptions) {
  ThreadPool pool(4);
  const auto run = [&] {
    pool.parallel_chunks(0, 400, [](std::size_t lo, std::size_t) {
      if (lo >= 100) throw std::runtime_error("chunk failed");
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  // The pool must stay usable after a failed fan-out.
  std::atomic<int> sum{0};
  pool.parallel_chunks(0, 10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::latch done(200);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, AllTasksExecuteAndDrainOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor finishes every queued task before joining.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, WorkerRecursiveSubmitsKeepDraining) {
  // Chained submits from inside tasks (the ArrayPool admission pattern:
  // a finishing job admits the next) must all run without external
  // nudging.
  // Declared before the pool: workers may still be returning through
  // `chain` when the count hits 21, so it must outlive the pool join.
  std::atomic<int> depth_done{0};
  std::function<void(int)> chain;
  {
    ThreadPool pool(2);
    chain = [&](int depth) {
      if (depth > 0) {
        pool.submit([&chain, depth] { chain(depth - 1); });
      }
      depth_done.fetch_add(1, std::memory_order_relaxed);
    };
    pool.submit([&chain] { chain(20); });
    // The pool destructor drains every queued task and joins.
  }
  EXPECT_EQ(depth_done.load(), 21);
}

TEST(ThreadPool, ThrowingTaskIsContainedAndPoolStaysUsable) {
  ThreadPool pool(2);
  std::latch done(4);
  for (int i = 0; i < 2; ++i) {
    pool.submit([&done] {
      done.count_down();
      throw std::runtime_error("task bug");
    });
  }
  std::atomic<int> ran{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      ran.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(ran.load(), 2);
  std::atomic<int> covered{0};
  pool.parallel_chunks(0, 64, [&](std::size_t lo, std::size_t hi) {
    covered.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(covered.load(), 64);
}

TEST(ThreadPool, EveryWorkerFansOutOnItsOwnPool) {
  // Every worker runs a task that fans out on the pool it runs on, so no
  // worker is idle to help: each caller must run all of its chunks
  // itself. A pool whose callers wait for queued chunks deadlocks here;
  // the wait is bounded so that fails the test instead of hanging it,
  // and on failure the pool and the state its stuck tasks use are leaked.
  constexpr int kWorkers = 2;
  struct State {
    std::latch started{kWorkers};
    std::atomic<int> covered{0};
    std::atomic<int> finished{0};
    std::promise<void> all_done;
  };
  auto pool = std::make_unique<ThreadPool>(kWorkers);
  auto state = std::make_shared<State>();
  std::future<void> all_done = state->all_done.get_future();
  ThreadPool* const raw = pool.get();
  for (int w = 0; w < kWorkers; ++w) {
    raw->submit([raw, state] {
      state->started.arrive_and_wait();
      raw->parallel_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
        state->covered.fetch_add(static_cast<int>(hi - lo));
      });
      if (state->finished.fetch_add(1) + 1 == kWorkers) {
        state->all_done.set_value();
      }
    });
  }
  if (all_done.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    static_cast<void>(pool.release());
    FAIL() << "same-pool fan-out did not complete";
  }
  EXPECT_EQ(state->covered.load(), kWorkers * 100);
}

TEST(ThreadPool, NestedFanOutCompletes) {
  // Chunks that fan out again: helpers may run inner chunks of another
  // caller's fan-out, and every caller still sees its whole range done.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(40 * 50);
  pool.parallel_chunks(0, 40, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t row = lo; row < hi; ++row) {
      pool.parallel_chunks(0, 50, [&](std::size_t a, std::size_t b) {
        for (std::size_t i = a; i < b; ++i) hits[row * 50 + i].fetch_add(1);
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersShareThePool) {
  // Several outside threads fan out at once, many times over: a helper
  // that starts after its caller returned must find nothing to do.
  ThreadPool pool(3);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        pool.parallel_chunks(0, 16, [&](std::size_t lo, std::size_t hi) {
          total.fetch_add(static_cast<long>(hi - lo));
        });
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(total.load(), 3L * 200 * 16);
}

TEST(ThreadPool, GlobalPoolIsBoundedAndReusable) {
  ThreadPool& global = ThreadPool::global();
  EXPECT_GE(global.size(), 2u);
  std::atomic<int> ran{0};
  global.submit([&] { ran.fetch_add(1); });
  while (ran.load() != 1) std::this_thread::yield();
  EXPECT_EQ(&global, &ThreadPool::global());
}

}  // namespace
}  // namespace ehw
