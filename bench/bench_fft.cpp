// FFT substrate benchmark (the PM bottleneck the paper's conclusion calls
// out: "The current bottleneck is FFT").  Serial 3-D transforms across
// sizes, and the slab-parallel convolution across rank counts -- showing
// the 1-D decomposition's parallelism ceiling at n ranks.

#include <benchmark/benchmark.h>

#include "fft/fft3d.hpp"
#include "fft/slab_fft.hpp"
#include "parx/runtime.hpp"
#include "util/rng.hpp"

namespace {

using namespace greem;

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::Fft1d plan(n);
  Rng rng(1);
  std::vector<fft::Complex> data(n);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    plan.forward(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft1d)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Fft3dForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::Fft3d plan(n);
  Rng rng(2);
  std::vector<fft::Complex> data(n * n * n);
  for (auto& v : data) v = {rng.normal(), 0.0};
  for (auto _ : state) {
    plan.forward(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n * n * n),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fft3dForward)->Arg(16)->Arg(32)->Arg(64);

/// Slab-parallel real-to-complex convolution (forward, multiply, inverse;
/// two transposes): rank count sweep at fixed mesh.  On a single host more
/// ranks cannot speed this up; the benchmark records the transpose traffic
/// instead (the alltoallv volume that dominates at scale).
void BM_SlabFft(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = 32;
  parx::Runtime rt(p);
  double bytes = 0;
  for (auto _ : state) {
    rt.ledger().reset();
    rt.run([&](parx::Comm& world) {
      fft::SlabFft slab(world, n);
      Rng rng(static_cast<std::uint64_t>(world.rank()) + 3);
      std::vector<double> data(slab.slab_cells());
      for (auto& v : data) v = rng.normal();
      const std::vector<double> green(slab.green_cells(), 0.5);
      slab.convolve(data, green);
      benchmark::DoNotOptimize(data.data());
    });
    bytes += static_cast<double>(rt.ledger().totals().bytes);
  }
  state.counters["transpose_bytes"] =
      benchmark::Counter(bytes / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SlabFft)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
