#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>

#include "common/arena.h"
#include "common/failpoint.h"
#include "common/hash_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace mweaver {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status st = Status::NotFound("missing");
  Status copy = st;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), "missing");
  EXPECT_TRUE(st.IsNotFound());  // source unchanged

  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsNotFound());

  Status assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.IsNotFound());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    MW_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(9), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(9), 9);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = [](bool fail) -> Result<std::string> {
    if (fail) return Status::Internal("boom");
    return std::string("value");
  };
  auto consumer = [&](bool fail) -> Result<size_t> {
    MW_ASSIGN_OR_RETURN(std::string s, producer(fail));
    return s.size();
  };
  EXPECT_EQ(*consumer(false), 5u);
  EXPECT_TRUE(consumer(true).status().IsInternal());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 3);
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC 123 Xyz"), "abc 123 xyz");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("The Ed Wood Story", "ed wood"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("short", "longer needle"));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abd"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", "ABC"));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Avatar", "aVaTaR"));
  EXPECT_FALSE(EqualsIgnoreCase("Avatar", "Avatars"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringUtilTest, EditDistanceBasics) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 10), 3u);
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 2), 0u);
  EXPECT_EQ(BoundedEditDistance("", "abc", 5), 3u);
  // Early exit: reports max+1 when the bound is exceeded.
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 2), 3u);
  EXPECT_EQ(BoundedEditDistance("abcdefgh", "x", 2), 3u);
}

TEST(StringUtilTest, EditDistanceSymmetry) {
  const char* words[] = {"cameron", "cameran", "burton", "cam", ""};
  for (const char* a : words) {
    for (const char* b : words) {
      EXPECT_EQ(BoundedEditDistance(a, b, 10), BoundedEditDistance(b, a, 10))
          << a << " vs " << b;
    }
  }
}

TEST(StringUtilTest, EditSimilarityRange) {
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  const double sim = EditSimilarity("cameron", "cameran");
  EXPECT_GT(sim, 0.8);
  EXPECT_LT(sim, 1.0);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%04d", 7), "0007");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// ---------------------------------------------------------------- Random --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ZipfIndexWithinBoundsAndSkewed) {
  Rng rng(11);
  size_t small_count = 0;
  const size_t kTrials = 4000;
  for (size_t i = 0; i < kTrials; ++i) {
    const size_t idx = rng.ZipfIndex(50, 1.0);
    EXPECT_LT(idx, 50u);
    if (idx < 10) ++small_count;
  }
  // Skew: the first fifth of ranks should hold well over a fifth of mass.
  EXPECT_GT(small_count, kTrials / 4);
}

TEST(RngTest, PickAndShuffleCoverElements) {
  Rng rng(5);
  std::vector<int> items{1, 2, 3, 4, 5};
  std::set<int> picked;
  for (int i = 0; i < 200; ++i) picked.insert(rng.Pick(items));
  EXPECT_EQ(picked.size(), items.size());

  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------- HashUtil --

TEST(HashUtilTest, CombineDiffersByOrder) {
  size_t ab = 0, ba = 0;
  HashCombine(&ab, 1);
  HashCombine(&ab, 2);
  HashCombine(&ba, 2);
  HashCombine(&ba, 1);
  EXPECT_NE(ab, ba);
}

TEST(HashUtilTest, HashRangeMatchesManualCombine) {
  std::vector<int> v{1, 2, 3};
  size_t manual = 0;
  for (int x : v) HashCombine(&manual, x);
  EXPECT_EQ(HashRange(v.begin(), v.end()), manual);
}

// ------------------------------------------------------------- Parallel --

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(n, threads, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelForTest, EdgeCases) {
  bool ran = false;
  ParallelFor(0, 4, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
  ParallelFor(1, 16, [&](size_t i) { ran = (i == 0); });
  EXPECT_TRUE(ran);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<size_t> total{0};
  ParallelFor(3, 64, [&](size_t i) {
    total.fetch_add(i + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 6u);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlockOnTheSharedPool) {
  // The caller always participates as a runner, so inner ParallelFors make
  // progress even when every shared-pool thread is occupied by outer ones.
  std::atomic<size_t> total{0};
  ParallelFor(8, 8, [&](size_t) {
    ParallelFor(8, 4, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  const size_t n = 100;
  {
    ThreadPool pool(4);
    for (size_t i = 0; i < n; ++i) {
      pool.Submit([&]() {
        if (done.fetch_add(1, std::memory_order_relaxed) + 1 == n) {
          std::lock_guard<std::mutex> lock(mu);
          cv.notify_one();
        }
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return done.load() == n; });
  }
  EXPECT_EQ(done.load(), n);
}

TEST(ThreadPoolTest, SharedPoolHasWorkers) {
  EXPECT_GE(ThreadPool::Shared().num_threads(), 2u);
}

// ------------------------------------------------------------ Stopwatch --

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch watch;
  const double t1 = watch.ElapsedSeconds();
  const double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

// ---------------------------------------------------------------- Arena --

TEST(ArenaTest, AllocationsBumpWithinOneBlock) {
  Arena arena;
  void* a = arena.allocate(64, 8);
  void* b = arena.allocate(64, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.num_allocations(), 2u);
  EXPECT_GE(arena.bytes_used(), 128u);
  // Both fit in the first block: no extra reservation beyond it.
  EXPECT_EQ(arena.bytes_reserved(), Arena::kDefaultBlockBytes);
}

TEST(ArenaTest, AlignmentIsHonored) {
  Arena arena;
  ASSERT_NE(arena.allocate(1, 1), nullptr);  // misalign the bump pointer
  void* p = arena.allocate(32, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
}

TEST(ArenaTest, OversizedRequestGrowsNewBlock) {
  Arena arena(/*initial_block_bytes=*/128);
  void* p = arena.allocate(4096, 16);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 4096u);
}

TEST(ArenaTest, ResetKeepsLargestBlockAndClearsCounters) {
  Arena arena(/*initial_block_bytes=*/128);
  ASSERT_NE(arena.allocate(100, 8), nullptr);
  ASSERT_NE(arena.allocate(1 << 16, 8), nullptr);  // a second, larger block
  const size_t reserved_before = arena.bytes_reserved();
  EXPECT_GT(reserved_before, size_t{128});

  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.num_allocations(), 0u);
  EXPECT_EQ(arena.num_resets(), 1u);
  EXPECT_EQ(arena.total_allocations(), 2u);  // lifetime counter survives
  // The largest block is retained; smaller ones are freed.
  EXPECT_GT(arena.bytes_reserved(), 0u);
  const size_t reserved_after_reset = arena.bytes_reserved();
  EXPECT_LE(reserved_after_reset, reserved_before);
  // Steady state: the next request reuses the kept block without malloc.
  ASSERT_NE(arena.allocate(1 << 16, 8), nullptr);
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_reset);
}

TEST(ArenaTest, PmrVectorDrawsFromArena) {
  Arena arena;
  {
    std::pmr::vector<int> v(&arena);
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GT(arena.bytes_used(), 1000 * sizeof(int) - 1);
  }
  // pmr deallocate is a no-op on the arena; destruction must not crash and
  // usage stays monotone until Reset().
  EXPECT_GT(arena.bytes_used(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
}

// -------------------------------------------------------------- Logging --

TEST(LoggingTest, LevelsRoundTrip) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(old_level);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ MW_CHECK(1 == 2) << "impossible"; }, "Check failed");
}

// ------------------------------------------------------------ Failpoints --

TEST(FailpointTest, DisarmedSiteIsInert) {
  EXPECT_EQ(MW_FAILPOINT_FIRE("test.fp.inert"), FailAction::kNone);
  EXPECT_FALSE(MW_FAILPOINT_TRIGGERED("test.fp.inert"));
  Failpoint* site = FailpointRegistry::Global().Find("test.fp.inert");
  ASSERT_NE(site, nullptr);
  EXPECT_FALSE(site->armed());
  // Disarmed hits are not even counted: the fast path takes no lock.
  EXPECT_EQ(site->stats().hits, 0u);
}

TEST(FailpointTest, ArmDisarmRoundTrip) {
  FailpointPolicy policy;
  policy.action = FailAction::kTrigger;
  {
    ScopedFailpoint armed("test.fp.roundtrip", policy);
    EXPECT_TRUE(armed.site().armed());
    EXPECT_TRUE(MW_FAILPOINT_TRIGGERED("test.fp.roundtrip"));
    EXPECT_EQ(FailpointRegistry::Global().ArmedSites(),
              std::vector<std::string>{"test.fp.roundtrip"});
  }
  EXPECT_FALSE(MW_FAILPOINT_TRIGGERED("test.fp.roundtrip"));
  EXPECT_TRUE(FailpointRegistry::Global().ArmedSites().empty());
}

TEST(FailpointTest, ErrorInjectionCarriesCodeAndSiteName) {
  FailpointPolicy policy;
  policy.action = FailAction::kError;
  policy.message = "disk gremlin";
  ScopedFailpoint armed("test.fp.error", policy);
  const Status st = armed.site().FireStatus();
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_NE(st.message().find("test.fp.error"), std::string::npos);
  EXPECT_NE(st.message().find("disk gremlin"), std::string::npos);
}

TEST(FailpointTest, SkipFirstAndMaxFiresBoundTheWindow) {
  FailpointPolicy policy;
  policy.action = FailAction::kTrigger;
  policy.skip_first = 2;
  policy.max_fires = 3;
  ScopedFailpoint armed("test.fp.window", policy);
  int fired = 0;
  for (int hit = 0; hit < 10; ++hit) {
    if (armed.site().Fire() == FailAction::kTrigger) {
      ++fired;
      // Window: exactly hits 2, 3, 4 fire (0-indexed).
      EXPECT_GE(hit, 2);
      EXPECT_LE(hit, 4);
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(armed.site().stats().hits, 10u);
  EXPECT_EQ(armed.site().stats().fires, 3u);
}

TEST(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  FailpointPolicy policy;
  policy.action = FailAction::kTrigger;
  policy.probability = 0.5;
  policy.seed = 1234;
  auto roll = [&]() {
    std::vector<bool> fires;
    ScopedFailpoint armed("test.fp.dice", policy);
    for (int i = 0; i < 64; ++i) {
      fires.push_back(armed.site().Fire() == FailAction::kTrigger);
    }
    return fires;
  };
  const std::vector<bool> first = roll();
  const std::vector<bool> second = roll();
  EXPECT_EQ(first, second);  // same seed, same schedule
  // And the dice actually land on both sides.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);

  policy.seed = 5678;
  ScopedFailpoint armed("test.fp.dice", policy);
  std::vector<bool> other;
  for (int i = 0; i < 64; ++i) {
    other.push_back(armed.site().Fire() == FailAction::kTrigger);
  }
  EXPECT_NE(first, other);  // different seed, different schedule
}

TEST(FailpointTest, DelayActionSleeps) {
  FailpointPolicy policy;
  policy.action = FailAction::kDelay;
  policy.delay = std::chrono::microseconds(2000);
  policy.max_fires = 1;
  ScopedFailpoint armed("test.fp.delay", policy);
  Stopwatch watch;
  EXPECT_EQ(armed.site().Fire(), FailAction::kDelay);
  EXPECT_GE(watch.ElapsedMillis(), 1.0);
  EXPECT_EQ(armed.site().Fire(), FailAction::kNone);  // limit reached
}

TEST(FailpointTest, ReturnNotOkMacroPropagatesInjectedError) {
  auto guarded = []() -> Status {
    MW_FAILPOINT_RETURN_NOT_OK("test.fp.macro");
    return Status::OK();
  };
  EXPECT_TRUE(guarded().ok());
  FailpointPolicy policy;
  policy.action = FailAction::kError;
  policy.error_code = StatusCode::kIOError;
  ScopedFailpoint armed("test.fp.macro", policy);
  EXPECT_TRUE(guarded().IsIOError());
}

TEST(FailpointRegistryTest, ConfigureFromStringArmsSites) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry
                  .ConfigureFromString(
                      "test.fp.cfg.a=trigger:p=0.25:after=3:limit=9:seed=11;"
                      "test.fp.cfg.b=error(ioerror);"
                      "test.fp.cfg.c=delay(250us);"
                      "test.fp.cfg.d=cancel")
                  .ok());
  const std::vector<std::string> armed = registry.ArmedSites();
  EXPECT_EQ(armed.size(), 4u);
  EXPECT_TRUE(registry.Find("test.fp.cfg.b")->FireStatus().IsIOError());
  EXPECT_EQ(registry.Find("test.fp.cfg.d")->Fire(), FailAction::kCancel);
  // 'off' disarms in the same syntax.
  ASSERT_TRUE(registry
                  .ConfigureFromString(
                      "test.fp.cfg.a=off;test.fp.cfg.b=off;"
                      "test.fp.cfg.c=off;test.fp.cfg.d=off")
                  .ok());
  EXPECT_TRUE(registry.ArmedSites().empty());
}

TEST(FailpointRegistryTest, ConfigureFromStringRejectsMalformedSpecs) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  EXPECT_TRUE(registry.ConfigureFromString("no-equals-sign")
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.ConfigureFromString("x=explode").IsInvalidArgument());
  EXPECT_TRUE(registry.ConfigureFromString("x=error(bogus)")
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.ConfigureFromString("x=delay(10)")  // missing unit
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.ConfigureFromString("x=trigger:p=nope")
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.ConfigureFromString("x=trigger:frobnicate=1")
                  .IsInvalidArgument());
  registry.DisarmAll();  // drop any site a partial parse armed
  EXPECT_TRUE(registry.ArmedSites().empty());
}

TEST(FailpointTest, ConcurrentFiresStayWithinLimit) {
  FailpointPolicy policy;
  policy.action = FailAction::kTrigger;
  policy.max_fires = 100;
  ScopedFailpoint armed("test.fp.concurrent", policy);
  std::atomic<int> fired{0};
  ParallelFor(8, 8, [&](size_t) {
    for (int i = 0; i < 100; ++i) {
      if (armed.site().Fire() == FailAction::kTrigger) {
        fired.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(fired.load(), 100);
  EXPECT_EQ(armed.site().stats().hits, 800u);
  EXPECT_EQ(armed.site().stats().fires, 100u);
}

}  // namespace
}  // namespace mweaver
