// Reproduces Figure 5: the canonical period of the Figure 2 graph for
// p = 1 (occurrences A1 A2 B1 B2 C1 D1 E1 E2 F1 F2 and their
// dependencies), schedules it with the TPDF rules (control actor with
// highest priority on a separate PE), and sweeps the makespan over PE
// counts and p.
//
// BM_MapChain1k times what `tpdfc map chain1k.tpdf pes=4 --json` does
// after loading: the canonical period of CI's 1k-actor multirate chain
// (190,109 firings), its list schedule on 4 PEs and the pretty-printed
// period and mapping, counted into a ChunkOut instead of printed.
#include <benchmark/benchmark.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "apps/papergraphs.hpp"
#include "graph/builder.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace tpdf;
using symbolic::Environment;

void printCanonicalPeriod() {
  const graph::Graph g = apps::fig2Tpdf();
  const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                  Environment{{"p", 1}});

  std::printf("=== Figure 5: canonical period of Figure 2 at p = 1 ===\n");
  support::Table table({"occurrence", "depends on"});
  for (std::size_t i = 0; i < cp.size(); ++i) {
    std::vector<std::string> preds;
    for (std::size_t p : cp.predecessors(i)) {
      preds.push_back(cp.nodeName(p));
    }
    table.addRow({cp.nodeName(i), support::join(preds, ", ")});
  }
  std::printf("%s\n", table.render().c_str());

  const sched::ListSchedule ls = sched::listSchedule(
      cp, sched::Platform{.peCount = 3, .dedicatedControlPe = true});
  std::printf("list schedule (3 worker PEs + control PE):\n%s\n",
              ls.toString(cp).c_str());
}

void printMakespanSweep() {
  const graph::Graph g = apps::fig2Tpdf();
  std::printf(
      "=== Makespan sweep (Section III-D heuristic, unit exec times) ===\n");
  support::Table table({"p", "PEs", "occurrences", "makespan"});
  for (std::int64_t p : {1, 2, 4, 8}) {
    const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                    Environment{{"p", p}});
    for (std::size_t pes : {1u, 2u, 4u, 8u}) {
      const sched::ListSchedule ls =
          sched::listSchedule(cp, sched::Platform{.peCount = pes});
      table.addRow({std::to_string(p), std::to_string(pes),
                    std::to_string(cp.size()),
                    support::formatDouble(ls.makespan)});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void BM_CanonicalPeriodConstruction(benchmark::State& state) {
  const graph::Graph g = apps::fig2Tpdf();
  const Environment env{{"p", state.range(0)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::CanonicalPeriod(g, csdf::computeRepetitionVector(g),
                               graph::EvaluatedRates(g, env), env));
  }
}
BENCHMARK(BM_CanonicalPeriodConstruction)->Arg(1)->Arg(16)->Arg(256);

void BM_ListScheduling(benchmark::State& state) {
  const graph::Graph g = apps::fig2Tpdf();
  const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                  Environment{{"p", state.range(0)}});
  const sched::Platform platform{.peCount = 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::listSchedule(cp, platform));
  }
}
BENCHMARK(BM_ListScheduling)->Arg(16)->Arg(256);

/// CPython's random.Random(seed) for a small non-negative integer seed:
/// MT19937 seeded by init_by_array({seed}), with random() and
/// randint() drawn as CPython draws them.
class PyRandom {
 public:
  explicit PyRandom(std::uint32_t seed) {
    mt_[0] = 19650218U;
    for (std::uint32_t i = 1; i < kN; ++i) {
      mt_[i] = 1812433253U * (mt_[i - 1] ^ (mt_[i - 1] >> 30)) + i;
    }
    std::uint32_t i = 1;
    for (std::uint32_t k = kN; k != 0; --k) {
      mt_[i] = (mt_[i] ^ ((mt_[i - 1] ^ (mt_[i - 1] >> 30)) * 1664525U)) +
               seed;
      if (++i >= kN) {
        mt_[0] = mt_[kN - 1];
        i = 1;
      }
    }
    for (std::uint32_t k = kN - 1; k != 0; --k) {
      mt_[i] =
          (mt_[i] ^ ((mt_[i - 1] ^ (mt_[i - 1] >> 30)) * 1566083941U)) - i;
      if (++i >= kN) {
        mt_[0] = mt_[kN - 1];
        i = 1;
      }
    }
    mt_[0] = 0x80000000U;
  }

  /// random(): a double in [0, 1) from 53 random bits.
  double random() {
    const std::uint32_t a = next() >> 5;
    const std::uint32_t b = next() >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
  }

  /// randint(lo, hi) for a range of at most 2^31 values.
  std::int64_t randint(std::int64_t lo, std::int64_t hi) {
    const auto n = static_cast<std::uint32_t>(hi - lo + 1);
    const int bits = 32 - std::countl_zero(n);
    std::uint32_t r = next() >> (32 - bits);
    while (r >= n) r = next() >> (32 - bits);
    return lo + r;
  }

 private:
  static constexpr std::uint32_t kN = 624;

  std::uint32_t next() {
    if (index_ >= kN) {
      for (std::uint32_t k = 0; k < kN; ++k) {
        const std::uint32_t y =
            (mt_[k] & 0x80000000U) | (mt_[(k + 1) % kN] & 0x7fffffffU);
        mt_[k] = mt_[(k + 397) % kN] ^ (y >> 1) ^ ((y & 1U) * 0x9908b0dfU);
      }
      index_ = 0;
    }
    std::uint32_t y = mt_[index_++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
  }

  std::array<std::uint32_t, kN> mt_{};
  std::uint32_t index_ = kN;
};

/// The 1k-actor chain of CI's large-graph smoke step, drawn by the same
/// generator from random.Random(1): each stage multiplies (production
/// k) or divides (consumption k) the running repetition count.
graph::Graph ciChain1k() {
  PyRandom rng(1);
  const int n = 1000;
  std::int64_t v = 1;
  std::vector<std::array<std::int64_t, 2>> rates;  // {production, consumption}
  for (int i = 0; i + 1 < n; ++i) {
    const std::int64_t k = rng.randint(2, 4);
    std::int64_t prod = 1;
    std::int64_t cons = 1;
    if (v * k <= 1024 && (v % k != 0 || rng.random() < 0.5)) {
      prod = k;
      v *= k;
    } else if (v % k == 0) {
      cons = k;
      v /= k;
    }
    rates.push_back({prod, cons});
  }
  graph::GraphBuilder b("chain1k");
  for (int i = 0; i < n; ++i) {
    b.kernel("K" + std::to_string(i));
    if (i > 0) b.in("i", "[" + std::to_string(rates[i - 1][1]) + "]");
    if (i + 1 < n) b.out("o", "[" + std::to_string(rates[i][0]) + "]");
  }
  for (int i = 0; i + 1 < n; ++i) {
    b.channel("e" + std::to_string(i), "K" + std::to_string(i) + ".o",
              "K" + std::to_string(i + 1) + ".i");
  }
  return b.build();
}

void BM_MapChain1k(benchmark::State& state) {
  const graph::Graph g = ciChain1k();
  const core::AnalysisContext ctx(g);
  const Environment env;
  std::size_t bytes = 0;
  const support::json::ChunkOut count = [&](std::string_view chunk) {
    bytes += chunk.size();
  };
  for (auto _ : state) {
    bytes = 0;
    const sched::CanonicalPeriod cp(ctx, env);
    const sched::ListSchedule ls =
        sched::listSchedule(cp, sched::Platform{.peCount = 4});
    support::json::Writer w(support::json::Layout::Pretty, &count);
    cp.write(w.beginObject().key("period"));
    ls.write(w.key("mapping"), cp);
    w.endObject().finish();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["firings"] = static_cast<double>(
      sched::CanonicalPeriod(ctx, env).size());
  state.counters["MB"] = static_cast<double>(bytes) / 1e6;
}
BENCHMARK(BM_MapChain1k)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printCanonicalPeriod();
  printMakespanSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
