#include "pm/parallel_pm.hpp"

#include "pm/gradient.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel_for.hpp"

namespace greem::pm {

ParallelPm::ParallelPm(parx::Comm& world, ParallelPmParams params) : params_(params) {
  params_.conversion.n_mesh = params_.n_mesh;
  converter_ = std::make_unique<MeshConverter>(world, params_.conversion);
  if (converter_->is_fft_rank()) {
    slab_fft_.emplace(converter_->fft_comm(), params_.n_mesh);
    const fft::Range kx = slab_fft_->local_kx();
    green_chunk_ = build_green_table_r2c(params_.green_params(), kx.begin, kx.end());
  }
}

void ParallelPm::update_domain(const Box& domain) {
  // TSC touches the nearest cell +/- 1; with arbitrary (non-cell-aligned)
  // domain boundaries a 2-cell pad is always sufficient.  The 4-point
  // finite difference needs the potential 2 cells beyond the force region.
  density_region_ = region_for_domain(domain, params_.n_mesh, 2);
  force_region_ = density_region_;
  potential_region_ = expand(force_region_, 2);
  converter_->set_regions(density_region_, potential_region_);
}

void ParallelPm::accelerations(std::span<const Vec3> pos, std::span<const double> mass,
                               std::span<Vec3> acc, TimingBreakdown* t) {
  const std::size_t n = params_.n_mesh;
  Stopwatch sw;

  // (1) density assignment onto the local mesh
  LocalMesh rho(density_region_);
  {
    telemetry::Span span("pm/density_assignment");
    assign_density(rho, n, params_.scheme, pos, mass);
  }
  if (t) t->add("density assignment", sw.seconds());

  // (2) forward conversion (direct alltoallv or relay mesh) into density
  // slabs
  std::vector<double> slab = converter_->gather_density(rho, t);

  // (3) real-to-complex slab FFT, Green's function, inverse FFT
  sw.restart();
  if (converter_->is_fft_rank()) {
    telemetry::Span span("pm/fft");
    slab_fft_->convolve(slab, green_chunk_);
  }
  if (t) t->add("FFT", sw.seconds());

  // (4) backward conversion into the local potential mesh
  LocalMesh phi = converter_->scatter_potential(slab, t);

  // (5a) acceleration on the mesh (4-point finite difference)
  sw.restart();
  LocalMesh fx, fy, fz;
  {
    telemetry::Span span("pm/gradient");
    fd_gradient(phi, force_region_, n, fx, fy, fz);
  }
  if (t) t->add("acceleration on mesh", sw.seconds());

  // (5b) force interpolation to the particle positions (per-particle
  // independent reads; disjoint writes, so chunking cannot change results)
  sw.restart();
  {
    telemetry::Span span("pm/interpolate");
    parallel_for_chunks(0, pos.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        acc[i] += interpolate(fx, fy, fz, n, params_.scheme, pos[i]);
    });
  }
  if (t) t->add("force interpolation", sw.seconds());
}

}  // namespace greem::pm
