// Unit tests for the benchmark's own helpers: the percentile rank rule,
// the seeded arrival schedule and the spec generator. Run with
// `python3 perfbench/run.py --test`. Exit 0 = all checks hold.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "lib/spec_gen.hpp"
#include "lib/stats.hpp"
#include "spec/parser.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_percentile_rank_rule() {
  std::vector<double> s;
  for (int i = 1; i <= 1000; ++i) s.push_back(i);
  check(perfbench::percentile(s, 50) == 500, "p50 of 1..1000 is 500");
  check(perfbench::percentile(s, 99) == 990, "p99 of 1..1000 is 990");
  check(perfbench::percentile(s, 100) == 1000, "p100 is the maximum");
  check(perfbench::percentile({7.0}, 99) == 7.0, "one sample");
  check(perfbench::percentile({}, 50) == 0.0, "empty sample");
  // Ten samples beyond the 99th percentile need 1000 samples.
  check(perfbench::samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond");
  check(perfbench::samples_beyond(999, 99) == 9, "999 samples: 9 beyond p99");
  check(perfbench::samples_beyond(40, 75) == 10, "40 samples support p75");
  check(perfbench::samples_beyond(39, 75) == 9, "39 samples do not");
  check(perfbench::samples_beyond(0, 50) == 0, "no samples, none beyond");
  check(perfbench::median({3, 1, 2, 4}) == 2.5, "even-sized median");
}

void test_arrival_schedule() {
  const std::vector<int> mix = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0};
  const auto a = perfbench::poisson_schedule(7, 200, 5.0, mix);
  const auto b = perfbench::poisson_schedule(7, 200, 5.0, mix);
  const auto c = perfbench::poisson_schedule(8, 200, 5.0, mix);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].t_s == b[i].t_s && a[i].kind == b[i].kind;
  }
  check(same, "same seed gives an identical schedule");
  check(a.size() != c.size() || a[0].t_s != c[0].t_s,
        "another seed gives another schedule");
  check(a.size() > 800 && a.size() < 1200, "about rate x duration arrivals");
  bool ordered = true;
  std::vector<int> per_kind(10, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].t_s < a[i - 1].t_s) ordered = false;
    if (a[i].t_s < 0 || a[i].t_s >= 5.0) ordered = false;
    ++per_kind[static_cast<std::size_t>(a[i].kind)];
  }
  check(ordered, "arrivals ascend within the phase");
  // Whole blocks of 11 so far, plus a partial one: kind 0 weighs twice.
  const int blocks = static_cast<int>(a.size() / mix.size());
  for (std::size_t k = 0; k < per_kind.size(); ++k) {
    const int weight = k == 0 ? 2 : 1;
    check(per_kind[k] >= blocks * weight &&
              per_kind[k] <= (blocks + 1) * weight,
          "kinds come in shuffled copies of the mix");
  }
}

void test_spec_generator() {
  std::set<std::string> texts;
  std::set<std::string> families;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const perfbench::GeneratedSpec spec = perfbench::generate_spec(3, i);
    check(spec.text == perfbench::generate_spec(3, i).text,
          "generator is a pure function of (seed, index)");
    texts.insert(spec.text);
    families.insert(spec.family);
    const auto parsed = ifsyn::spec::parse_system(spec.text);
    check(parsed.is_ok(), "generated spec " + std::to_string(i) + " parses: " +
                              (parsed.is_ok() ? std::string()
                                              : parsed.status().to_string()));
    if (parsed.is_ok()) {
      check(parsed->validate().is_ok(),
            "generated spec " + std::to_string(i) + " validates");
    }
  }
  check(texts.size() == 300, "300 indices give 300 distinct specs");
  check(families.size() == 3, "all three templates are drawn");
  check(perfbench::generate_spec(4, 0).text !=
            perfbench::generate_spec(3, 0).text,
        "the seed changes the specs");
}

}  // namespace

int main() {
  test_percentile_rank_rule();
  test_arrival_schedule();
  test_spec_generator();
  if (g_failures == 0) std::printf("perfbench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
