// Reproduction of §II-A: the O(N^2) kernel benchmark used to quote the
// force-loop efficiency.  The paper's loop reaches 11.65 Gflops of a
// 12 Gflops theoretical bound (97%) on one SPARC64 VIIIfx core, counting
// 51 floating-point operations per pairwise interaction.  We report the
// same flops accounting for the scalar reference, the batched phantom
// kernel, and the plain Newton kernel, plus the phantom/scalar speedup
// (the quantity the Phantom-GRAPE port buys).

// Besides the google-benchmark registrations, main() times every kernel
// variant the CPU supports and records the rates and speedups in
// BENCH_kernel.json (machine-readable counterpart of the table above).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "pp/kernels.hpp"
#include "telemetry/json.hpp"
#include "util/morton.hpp"
#include "util/rng.hpp"

namespace {

using namespace greem;

struct Workload {
  std::vector<Vec3> xi;
  std::vector<Vec3> acc;
  pp::InteractionList list;
  std::size_t nj = 0;  ///< sources before pad4(), as the step counts them
  double rcut = 0.3;
  double eps2 = 1e-8;
};

Workload make_workload(std::size_t ni, std::size_t nj) {
  Rng rng(1234);
  Workload w;
  w.xi.resize(ni);
  w.acc.resize(ni);
  w.nj = nj;
  for (auto& p : w.xi) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  for (std::size_t j = 0; j < nj; ++j)
    w.list.add({rng.uniform(), rng.uniform(), rng.uniform()}, 1.0 / static_cast<double>(nj));
  w.list.pad4();
  return w;
}

/// The `uniform` perfbench box's group shape: 43 targets in a cube of side
/// 0.086 and 847 sources spread over the region within rcut = 0.094 of it
/// (the walk's list), at the step's softening.
Workload make_uniform_group() {
  constexpr std::size_t kNi = 43, kNj = 847;
  constexpr double kSide = 0.086, kLo = 0.4;
  Rng rng(4321);
  Workload w;
  w.rcut = 0.094;
  w.eps2 = 1e-6;
  w.nj = kNj;
  w.xi.resize(kNi);
  w.acc.resize(kNi);
  for (auto& p : w.xi)
    p = {rng.uniform(kLo, kLo + kSide), rng.uniform(kLo, kLo + kSide),
         rng.uniform(kLo, kLo + kSide)};
  // Tree order, as the walk hands a group's targets to the kernel: each
  // 4-target tile is a compact corner of the cube.
  std::sort(w.xi.begin(), w.xi.end(),
            [](const Vec3& a, const Vec3& b) { return morton_key(a) < morton_key(b); });
  while (w.list.size() < kNj) {
    const Vec3 p{rng.uniform(kLo - w.rcut, kLo + kSide + w.rcut),
                 rng.uniform(kLo - w.rcut, kLo + kSide + w.rcut),
                 rng.uniform(kLo - w.rcut, kLo + kSide + w.rcut)};
    double d2 = 0;
    for (const double c : {p.x, p.y, p.z}) {
      const double d = std::max({kLo - c, c - (kLo + kSide), 0.0});
      d2 += d * d;
    }
    if (d2 < w.rcut * w.rcut) w.list.add(p, 1.0 / static_cast<double>(kNj));
  }
  w.list.pad4();
  return w;
}

/// Share of the list pairs the variant evaluates on `w` (1 unless the
/// kernel culls pairs past the cutoff).
double evaluated_fraction(pp::PhantomVariant v, Workload& w) {
  const std::uint64_t pairs =
      pp::pp_kernel_phantom_variant(v, w.xi, w.acc, w.list, w.rcut, w.eps2);
  return static_cast<double>(pairs) /
         (static_cast<double>(w.xi.size()) * static_cast<double>(w.nj));
}

void report_flops(benchmark::State& state, std::size_t ni, std::size_t nj, int flops) {
  const double interactions = static_cast<double>(state.iterations()) *
                              static_cast<double>(ni) * static_cast<double>(nj);
  state.counters["interactions/s"] =
      benchmark::Counter(interactions, benchmark::Counter::kIsRate);
  state.counters["Gflops"] = benchmark::Counter(interactions * flops * 1e-9,
                                                benchmark::Counter::kIsRate);
}

void BM_PhantomKernel(benchmark::State& state) {
  const auto ni = static_cast<std::size_t>(state.range(0));
  const std::size_t nj = 2048;  // ~ the paper's <Nj> ~ 2000 list length
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_phantom(w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, ni, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_PhantomKernel)->Arg(64)->Arg(128)->Arg(512);

void BM_PhantomVariant(benchmark::State& state) {
  // One specific dispatch variant (index into kVariants below).
  const auto v = static_cast<pp::PhantomVariant>(state.range(0));
  if (!pp::phantom_variant_available(v)) {
    state.SkipWithError("variant not available on this CPU");
    return;
  }
  const std::size_t ni = 512, nj = 2048;
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_phantom_variant(v, w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  state.SetLabel(pp::phantom_variant_name(v));
  report_flops(state, ni, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_PhantomVariant)
    ->Arg(static_cast<int>(pp::PhantomVariant::kBasic))
    ->Arg(static_cast<int>(pp::PhantomVariant::kBlockedAvx2))
    ->Arg(static_cast<int>(pp::PhantomVariant::kBlockedAvx512));

void BM_ScalarKernel(benchmark::State& state) {
  const auto ni = static_cast<std::size_t>(state.range(0));
  const std::size_t nj = 2048;
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_scalar(w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, ni, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_ScalarKernel)->Arg(64)->Arg(128);

void BM_NewtonKernel(benchmark::State& state) {
  const auto ni = static_cast<std::size_t>(state.range(0));
  const std::size_t nj = 2048;
  auto w = make_workload(ni, nj);
  for (auto _ : state) {
    pp::pp_kernel_newton(w.xi, w.acc, w.list, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, ni, w.list.size(), pp::kFlopsPerNewtonInteraction);
}
BENCHMARK(BM_NewtonKernel)->Arg(128);

/// The paper's headline kernel number: a pure O(N^2) self-interaction
/// benchmark (every particle against every particle).
void BM_NSquaredKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto w = make_workload(n, n);
  for (auto _ : state) {
    pp::pp_kernel_phantom(w.xi, w.acc, w.list, w.rcut, w.eps2);
    benchmark::DoNotOptimize(w.acc.data());
  }
  report_flops(state, n, w.list.size(), pp::kFlopsPerInteraction);
}
BENCHMARK(BM_NSquaredKernel)->Arg(1024)->Arg(4096);

/// Best-of-3 interaction rate of one variant on a fixed workload.
double measure_rate(pp::PhantomVariant v, Workload& w, double seconds = 0.2) {
  using clock = std::chrono::steady_clock;
  const double n_inter = static_cast<double>(w.xi.size()) * static_cast<double>(w.nj);
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t iters = 0;
    const auto t0 = clock::now();
    double elapsed = 0;
    while (elapsed < seconds) {
      pp::pp_kernel_phantom_variant(v, w.xi, w.acc, w.list, w.rcut, w.eps2);
      benchmark::DoNotOptimize(w.acc.data());
      ++iters;
      elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    }
    best = std::max(best, static_cast<double>(iters) * n_inter / elapsed);
  }
  return best;
}

void write_kernel_json(const char* path) {
  constexpr std::size_t ni = 512, nj = 2048, kStepNj = 977;
  auto w = make_workload(ni, nj);

  constexpr pp::PhantomVariant kVariants[] = {
      pp::PhantomVariant::kScalar, pp::PhantomVariant::kBasic,
      pp::PhantomVariant::kBlockedAvx2, pp::PhantomVariant::kBlockedAvx512};
  double rate[std::size(kVariants)] = {};
  for (std::size_t k = 0; k < std::size(kVariants); ++k)
    if (pp::phantom_variant_available(kVariants[k])) rate[k] = measure_rate(kVariants[k], w);
  const double scalar = rate[0], basic = rate[1];
  const double dispatched = measure_rate(pp::phantom_dispatch(), w);

  std::ofstream os(path);
  if (!os) return;
  telemetry::JsonWriter jw(os);
  jw.begin_object();
  telemetry::write_meta(
      jw, telemetry::RunMeta::collect("kernel",
                                      pp::phantom_variant_name(pp::phantom_dispatch())));
  jw.field("ni", ni);
  jw.field("nj", w.list.size());
  jw.field("flops_per_interaction", pp::kFlopsPerInteraction);
  jw.field("dispatch", pp::phantom_variant_name(pp::phantom_dispatch()));
  jw.field("dispatch_interactions_per_s", dispatched);
  jw.field("dispatch_speedup_vs_basic", basic > 0 ? dispatched / basic : 0.0);
  jw.key("variants").begin_array();
  for (std::size_t k = 0; k < std::size(kVariants); ++k) {
    const pp::PhantomVariant v = kVariants[k];
    jw.begin_object();
    jw.field("name", pp::phantom_variant_name(v));
    jw.field("available", rate[k] > 0);
    jw.field("interactions_per_s", rate[k]);
    jw.field("gflops", rate[k] * pp::kFlopsPerInteraction * 1e-9);
    jw.field("speedup_vs_scalar", scalar > 0 ? rate[k] / scalar : 0.0);
    jw.field("speedup_vs_basic", basic > 0 ? rate[k] / basic : 0.0);
    jw.end_object();
  }
  jw.end_array();
  // The dispatched kernel at the step's shape: the traced clustered
  // replay's group means (<Ni>, <Nj>) = (19, 977), ni = 1..8 at the same
  // list length, and the uniform box's group (43 targets against 847
  // sources within rcut of their cube).  Against the (512, 2048) rate above
  // these price what one call costs besides its interactions: the list
  // set-up, the ni % 4 tail and the avx512 cull.  The rates count list
  // pairs; `evaluated_fraction` is the share the kernel ran, so a rate
  // rise from culling reads as work skipped, not faster arithmetic.
  jw.key("step_shape").begin_array();
  auto write_shape = [&](const char* name, Workload& sw) {
    const double r = measure_rate(pp::phantom_dispatch(), sw, 0.1);
    jw.begin_object();
    jw.field("shape", name);
    jw.field("ni", sw.xi.size());
    jw.field("nj", sw.nj);
    jw.field("interactions_per_s", r);
    jw.field("gflops", r * pp::kFlopsPerInteraction * 1e-9);
    jw.field("evaluated_fraction", evaluated_fraction(pp::phantom_dispatch(), sw));
    jw.end_object();
  };
  for (const std::size_t shape_ni : {19, 1, 2, 3, 4, 5, 6, 7, 8}) {
    auto sw = make_workload(shape_ni, kStepNj);
    write_shape(shape_ni == 19 ? "clustered_mean" : "list_977", sw);
  }
  auto uniform = make_uniform_group();
  write_shape("uniform_group", uniform);
  jw.end_array();
  jw.end_object();
  os << "\n";
  std::printf("wrote %s (dispatch=%s, %.3g M inter/s, %.2fx vs basic)\n", path,
              pp::phantom_variant_name(pp::phantom_dispatch()), dispatched * 1e-6,
              basic > 0 ? dispatched / basic : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  write_kernel_json("BENCH_kernel.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
