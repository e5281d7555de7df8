// Unit tests for the metrics registry: counter/gauge/histogram semantics,
// stable handle re-registration, snapshot ordering, and the
// deterministic/wall-clock split in the JSON and markdown renderings.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ifsyn::obs {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, GaugeSetsAndAdds) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(MetricsTest, HistogramBucketsObservationsIncludingOverflow) {
  Histogram h({1, 4, 16});
  h.observe(0);   // <= 1
  h.observe(1);   // <= 1 (bounds are inclusive upper edges)
  h.observe(2);   // <= 4
  h.observe(16);  // <= 16
  h.observe(17);  // overflow
  h.observe(1000);  // overflow

  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 16 + 17 + 1000);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
}

TEST(MetricsTest, HistogramMergeEqualsObservingEachValue) {
  const std::vector<std::uint64_t> bounds = {1, 4, 16};
  const std::vector<std::uint64_t> values = {0, 1, 2, 16, 17, 1000, 3};
  Histogram observed(bounds);
  std::vector<std::uint64_t> tally(bounds.size() + 1, 0);
  std::uint64_t sum = 0;
  for (const std::uint64_t v : values) {
    observed.observe(v);
    ++tally[bucket_index(bounds, v)];
    sum += v;
  }
  Histogram merged(bounds);
  merged.merge(tally, sum);
  EXPECT_EQ(merged.bucket_counts(), observed.bucket_counts());
  EXPECT_EQ(merged.count(), observed.count());
  EXPECT_EQ(merged.sum(), observed.sum());
  // Merging adds to what is already there.
  merged.merge(tally, sum);
  EXPECT_EQ(merged.count(), 2 * values.size());
  EXPECT_EQ(merged.sum(), 2 * sum);
}

TEST(MetricsTest, ExponentialBoundsDoubleUpToMax) {
  EXPECT_EQ(exponential_bounds(16),
            (std::vector<std::uint64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(exponential_bounds(3), (std::vector<std::uint64_t>{1, 2}));
  // Degenerate max still yields a usable one-bucket histogram.
  EXPECT_EQ(exponential_bounds(0), (std::vector<std::uint64_t>{1}));
}

TEST(MetricsTest, RegistryReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);  // re-registration returns the same metric
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);

  Histogram& h1 = reg.histogram("x.hist", {1, 2});
  Histogram& h2 = reg.histogram("x.hist", {99});  // bounds of first win
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(MetricsTest, FirstRegistrationFixesDeterminismClass) {
  MetricsRegistry reg;
  reg.counter("t.phase_us", Determinism::kWallClock).add(5);
  reg.counter("t.phase_us");  // later default-deterministic lookup
  const MetricsSnapshot snap = reg.snapshot();
  const MetricsSnapshot::Entry* e = snap.find("t.phase_us");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->determinism, Determinism::kWallClock);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.counter("zeta");
  reg.gauge("alpha");
  reg.histogram("mid", {1});
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "alpha");
  EXPECT_EQ(snap.entries[1].name, "mid");
  EXPECT_EQ(snap.entries[2].name, "zeta");
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsTest, SnapshotCapturesAllThreeKinds) {
  MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.gauge("g").set(-2);
  reg.histogram("h", {10}).observe(3);
  const MetricsSnapshot snap = reg.snapshot();

  const MetricsSnapshot::Entry* c = snap.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::kCounter);
  EXPECT_EQ(c->counter, 7u);

  const MetricsSnapshot::Entry* g = snap.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, -2);

  const MetricsSnapshot::Entry* h = snap.find("h");
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->histogram.has_value());
  EXPECT_EQ(h->histogram->count, 1u);
  EXPECT_EQ(h->histogram->sum, 3u);
  ASSERT_EQ(h->histogram->counts.size(), 2u);
  EXPECT_EQ(h->histogram->counts[0], 1u);
  EXPECT_EQ(h->histogram->counts[1], 0u);
}

TEST(MetricsTest, JsonSeparatesDeterministicFromWallClock) {
  MetricsRegistry reg;
  reg.counter("sim.events").add(100);
  reg.counter("phase.p1_us", Determinism::kWallClock).add(1234);
  const MetricsSnapshot snap = reg.snapshot();

  const std::string full = snap.to_json();
  EXPECT_NE(full.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(full.find("\"wall_clock\""), std::string::npos);
  EXPECT_NE(full.find("\"sim.events\": 100"), std::string::npos);
  EXPECT_NE(full.find("\"phase.p1_us\": 1234"), std::string::npos);

  // The deterministic view omits anything wall-clock-classed, so it can be
  // compared byte-for-byte across thread counts.
  const std::string det = snap.deterministic_json();
  EXPECT_NE(det.find("\"sim.events\": 100"), std::string::npos);
  EXPECT_EQ(det.find("phase.p1_us"), std::string::npos);
}

TEST(MetricsTest, DeterministicMarkdownRendersTable) {
  MetricsRegistry reg;
  reg.counter("a.count").add(5);
  reg.counter("b.wall_us", Determinism::kWallClock).add(999);
  reg.histogram("c.cycles", {1, 8}).observe(3);
  const std::string md = reg.snapshot().deterministic_markdown();

  EXPECT_NE(md.find("| metric | value |"), std::string::npos);
  EXPECT_NE(md.find("| a.count | 5 |"), std::string::npos);
  EXPECT_NE(md.find("| c.cycles | count 1, sum 3, max bucket <= 8 |"),
            std::string::npos);
  EXPECT_EQ(md.find("b.wall_us"), std::string::npos);

  // Overflow observations are reported as exceeding the last bound.
  reg.histogram("c.cycles", {1, 8}).observe(100);
  const std::string md2 = reg.snapshot().deterministic_markdown();
  EXPECT_NE(md2.find("max bucket > 8"), std::string::npos);
}

TEST(MetricsTest, EmptySnapshotRendersEmptyMarkdown) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.snapshot().deterministic_markdown(), "");
}

TEST(MetricsTest, ConcurrentCounterUpdatesAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("shared");
  Histogram& h = reg.histogram("shared.hist", exponential_bounds(1024));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(static_cast<std::uint64_t>(i % 100));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace ifsyn::obs
