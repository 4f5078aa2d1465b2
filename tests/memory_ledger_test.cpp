// Tests of the memory attribution ledger: tag taxonomy, RAII scope
// nesting, buffer tag stickiness across moves, the sum invariant (per-tag
// currents decompose the global current), the peak-attribution snapshot,
// BudgetExceeded attribution, and concurrent tagged accounting (the
// concurrency tests double as the TSan targets for the ledger).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/memory.h"
#include "coupled/coupled.h"

namespace cs {
namespace {

/// Sum of per-tag live bytes, excluding the budget-exempt pack scratch
/// gauge (which is deliberately outside the global counters).
std::size_t tagged_sum() {
  auto& t = MemoryTracker::instance();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < kMemTagCount; ++i) {
    const auto tag = static_cast<MemTag>(i);
    if (tag == MemTag::kPackScratch) continue;
    sum += t.tag_current(tag);
  }
  return sum;
}

TEST(MemTagTaxonomy, NamesAreUniqueAndStable) {
  std::set<std::string> names;
  std::set<std::string> counter_names;
  for (std::size_t i = 0; i < kMemTagCount; ++i) {
    const auto tag = static_cast<MemTag>(i);
    const std::string name = mem_tag_name(tag);
    EXPECT_NE(name, "invalid");
    EXPECT_TRUE(names.insert(name).second) << "duplicate tag name " << name;
    const std::string counter = mem_tag_counter_name(tag);
    EXPECT_EQ(counter, "mem." + name);
    EXPECT_TRUE(counter_names.insert(counter).second);
  }
  EXPECT_EQ(mem_tag_name(MemTag::kMfFront), std::string("mf.front"));
  EXPECT_EQ(mem_tag_name(MemTag::kHmatRk), std::string("hmat.rk"));
  EXPECT_EQ(mem_tag_name(MemTag::kPackScratch), std::string("pack.scratch"));
}

TEST(MemoryScope, NestsAndRestoresPerThread) {
  EXPECT_EQ(MemoryScope::current(), MemTag::kUntagged);
  {
    MemoryScope outer(MemTag::kMfFront);
    EXPECT_EQ(MemoryScope::current(), MemTag::kMfFront);
    {
      MemoryScope inner(MemTag::kHmatRk);
      EXPECT_EQ(MemoryScope::current(), MemTag::kHmatRk);
    }
    EXPECT_EQ(MemoryScope::current(), MemTag::kMfFront);
    // A scope on another thread must not leak into this one.
    std::thread([] {
      EXPECT_EQ(MemoryScope::current(), MemTag::kUntagged);
      MemoryScope other(MemTag::kSchurDense);
      EXPECT_EQ(MemoryScope::current(), MemTag::kSchurDense);
    }).join();
    EXPECT_EQ(MemoryScope::current(), MemTag::kMfFront);
  }
  EXPECT_EQ(MemoryScope::current(), MemTag::kUntagged);
}

TEST(MemoryLedger, AllocationChargesInnermostScope) {
  auto& t = MemoryTracker::instance();
  const std::size_t front0 = t.tag_current(MemTag::kMfFront);
  const std::size_t rk0 = t.tag_current(MemTag::kHmatRk);
  const std::size_t global0 = t.current();
  {
    MemoryScope outer(MemTag::kMfFront);
    t.allocate(1000);
    {
      MemoryScope inner(MemTag::kHmatRk);
      t.allocate(500);
    }
    EXPECT_EQ(t.tag_current(MemTag::kMfFront), front0 + 1000);
    EXPECT_EQ(t.tag_current(MemTag::kHmatRk), rk0 + 500);
    EXPECT_EQ(t.current(), global0 + 1500);
    t.release(1000);
  }
  MemoryScope inner(MemTag::kHmatRk);
  t.release(500);
  EXPECT_EQ(t.tag_current(MemTag::kMfFront), front0);
  EXPECT_EQ(t.tag_current(MemTag::kHmatRk), rk0);
  EXPECT_EQ(t.current(), global0);
}

TEST(MemoryLedger, BufferTagSticksAcrossMoveAndScopeChange) {
  auto& t = MemoryTracker::instance();
  const std::size_t front0 = t.tag_current(MemTag::kMfFront);
  const std::size_t schur0 = t.tag_current(MemTag::kSchurDense);
  {
    Buffer<double> moved_into;
    {
      MemoryScope scope(MemTag::kMfFront);
      Buffer<double> b(1024);
      EXPECT_EQ(t.tag_current(MemTag::kMfFront),
                front0 + 1024 * sizeof(double));
      moved_into = std::move(b);
    }
    // Still charged to mf.front after the move, and the release below
    // happens under a *different* scope: the bytes must leave mf.front,
    // not schur.dense.
    EXPECT_EQ(t.tag_current(MemTag::kMfFront), front0 + 1024 * sizeof(double));
    MemoryScope other(MemTag::kSchurDense);
    moved_into = Buffer<double>();
    EXPECT_EQ(t.tag_current(MemTag::kMfFront), front0);
    EXPECT_EQ(t.tag_current(MemTag::kSchurDense), schur0);
  }
}

TEST(MemoryLedger, TaggedSumDecomposesGlobalCurrent) {
  auto& t = MemoryTracker::instance();
  EXPECT_EQ(tagged_sum(), t.current());
  MemoryScope scope(MemTag::kRhsWorkspace);
  Buffer<double> b(4096);
  EXPECT_EQ(tagged_sum(), t.current());
}

TEST(MemoryLedger, PeakSnapshotIsExactSingleThreaded) {
  auto& t = MemoryTracker::instance();
  t.reset_peak();
  const std::size_t front0 = t.tag_current(MemTag::kMfFront);
  const std::size_t rk0 = t.tag_current(MemTag::kHmatRk);
  {
    MemoryScope front(MemTag::kMfFront);
    t.allocate(1 << 20);
    MemoryScope rk(MemTag::kHmatRk);
    t.allocate(1 << 19);  // high-water mark advances here
    const MemTagArray at_peak = t.peak_attribution();
    EXPECT_EQ(at_peak[static_cast<std::size_t>(MemTag::kMfFront)],
              front0 + (1 << 20));
    EXPECT_EQ(at_peak[static_cast<std::size_t>(MemTag::kHmatRk)],
              rk0 + (1 << 19));
    std::size_t snapshot_sum = 0;
    for (std::size_t i = 0; i < kMemTagCount; ++i)
      if (static_cast<MemTag>(i) != MemTag::kPackScratch)
        snapshot_sum += at_peak[i];
    EXPECT_EQ(snapshot_sum, t.peak());
    t.release(1 << 19);
    MemoryScope front_again(MemTag::kMfFront);
    t.release(1 << 20);
  }
  // Releases do not disturb the captured snapshot.
  const MemTagArray after = t.peak_attribution();
  EXPECT_EQ(after[static_cast<std::size_t>(MemTag::kMfFront)],
            front0 + (1 << 20));
  t.reset_peak();
}

TEST(MemoryLedger, ResetPeakReseedsSnapshotFromLiveLedger) {
  auto& t = MemoryTracker::instance();
  MemoryScope scope(MemTag::kSchurDense);
  t.allocate(2048);
  t.reset_peak();
  const MemTagArray snap = t.peak_attribution();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < kMemTagCount; ++i)
    if (static_cast<MemTag>(i) != MemTag::kPackScratch) sum += snap[i];
  EXPECT_EQ(sum, t.current());
  EXPECT_EQ(t.peak(), t.current());
  t.release(2048);
  t.reset_peak();
}

TEST(MemoryLedger, NoteScratchIsBudgetExemptPerTagOnly) {
  auto& t = MemoryTracker::instance();
  const std::size_t global0 = t.current();
  const std::size_t scratch0 = t.tag_current(MemTag::kPackScratch);
  t.note_scratch(1 << 16);
  EXPECT_EQ(t.current(), global0);  // global counters untouched
  EXPECT_EQ(t.tag_current(MemTag::kPackScratch), scratch0 + (1 << 16));
  EXPECT_GE(t.tag_peak(MemTag::kPackScratch), scratch0 + (1 << 16));
  t.note_scratch(-(1 << 16));
  EXPECT_EQ(t.tag_current(MemTag::kPackScratch), scratch0);
}

TEST(BudgetExceeded, CarriesAttributionAndNamesOwners) {
  auto& t = MemoryTracker::instance();
  ScopedBudget budget(t.current() + (1 << 20));
  MemoryScope scope(MemTag::kHmatRk);
  t.allocate(1 << 19);  // fits
  try {
    t.allocate(4 << 20);  // exceeds
    t.release(4 << 20);
    FAIL() << "allocation above budget did not throw";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.requested(), static_cast<std::size_t>(4 << 20));
    EXPECT_LE(e.in_use(), e.budget());
    EXPECT_GE(e.attribution()[static_cast<std::size_t>(MemTag::kHmatRk)],
              static_cast<std::size_t>(1 << 19));
    const std::string msg = e.what();
    EXPECT_NE(msg.find("memory budget exceeded"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hmat.rk"), std::string::npos)
        << "message should name the owning subsystem: " << msg;
    EXPECT_NE(msg.find("iB"), std::string::npos)
        << "message should use format_bytes units: " << msg;
  }
  t.release(1 << 19);
}

TEST(MemoryLedger, ConcurrentTaggedAllocReleaseStaysBalanced) {
  auto& t = MemoryTracker::instance();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  const MemTag tags[] = {MemTag::kMfFront, MemTag::kHmatRk,
                         MemTag::kSchurDense, MemTag::kRhsWorkspace};
  std::vector<std::size_t> tag0;
  for (MemTag tag : tags) tag0.push_back(t.tag_current(tag));
  const std::size_t global0 = t.current();
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const MemTag tag = tags[w % 4];
      for (int i = 0; i < kIters; ++i) {
        MemoryScope scope(tag);
        Buffer<float> b(64 + (i % 64));
        t.allocate(128);
        t.release(128);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(t.tag_current(tags[k]), tag0[k]) << mem_tag_name(tags[k]);
  EXPECT_EQ(t.current(), global0);
  EXPECT_EQ(tagged_sum(), t.current());
}

TEST(MemoryLedger, ConcurrentPeaksKeepSnapshotNearPeak) {
  // Hammer the high-water mark from several threads, then check the
  // snapshot sum lands within slack of the recorded peak (the capture is
  // approximate by design under concurrency).
  auto& t = MemoryTracker::instance();
  t.reset_peak();
  constexpr int kThreads = 6;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      MemoryScope scope(w % 2 == 0 ? MemTag::kMfFront : MemTag::kSchurPanel);
      for (int i = 0; i < 500; ++i) {
        t.allocate(10000 + 17 * static_cast<std::size_t>(i));
        t.release(10000 + 17 * static_cast<std::size_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  const MemTagArray snap = t.peak_attribution();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < kMemTagCount; ++i)
    if (static_cast<MemTag>(i) != MemTag::kPackScratch) sum += snap[i];
  const double peak = static_cast<double>(t.peak());
  EXPECT_GE(static_cast<double>(sum), 0.5 * peak);
  EXPECT_LE(static_cast<double>(sum), 1.5 * peak + 1024.0);
  t.reset_peak();
}

// -- end-to-end: the ledger through the full solver stack --------------------

class LedgerStrategySweep : public ::testing::TestWithParam<coupled::Strategy> {
};

TEST_P(LedgerStrategySweep, SolveKeepsSumInvariantAndAttributesPeak) {
  fembem::SystemParams p;
  p.total_unknowns = 1600;
  static auto sys = fembem::make_pipe_system<double>(p);
  auto& t = MemoryTracker::instance();
  const std::size_t before = t.current();
  EXPECT_EQ(tagged_sum(), before);

  coupled::Config cfg;
  cfg.strategy = GetParam();
  cfg.eps = 1e-4;
  cfg.n_c = 48;
  cfg.n_S = 96;
  cfg.n_b = 2;
  auto stats = coupled::solve_coupled(sys, cfg);
  ASSERT_TRUE(stats.success) << stats.failure;

  // Quiescent again: every solver allocation was released against the tag
  // it was charged to, so the decomposition still holds.
  EXPECT_EQ(t.current(), before);
  EXPECT_EQ(tagged_sum(), t.current());

  // The report's peak attribution decomposes the measured peak within
  // slack (concurrent allocators make the snapshot approximate).
  ASSERT_FALSE(stats.peak_by_tag.empty());
  std::size_t sum = 0;
  for (const auto& [tag, bytes] : stats.peak_by_tag)
    if (tag != "pack.scratch") sum += bytes;
  EXPECT_GE(static_cast<double>(sum),
            0.75 * static_cast<double>(stats.peak_bytes));
  EXPECT_LE(static_cast<double>(sum),
            1.25 * static_cast<double>(stats.peak_bytes) + 1e6);

  // Planner audit recorded: a prediction exists and the misprediction
  // ratio is the quotient of the two report fields.
  EXPECT_GT(stats.planner_predicted_bytes, 0u);
  EXPECT_GT(stats.planner_misprediction, 0.0);
  EXPECT_NEAR(stats.planner_misprediction,
              static_cast<double>(stats.planner_predicted_bytes) /
                  static_cast<double>(stats.peak_bytes),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, LedgerStrategySweep,
    ::testing::ValuesIn(coupled::kAllStrategies),
    [](const ::testing::TestParamInfo<coupled::Strategy>& info) {
      std::string name = coupled::strategy_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace cs
