#include "pm/pencil_pm.hpp"

#include <cassert>
#include <cmath>

#include "fft/fft3d.hpp"
#include "pm/gradient.hpp"
#include "util/parallel_for.hpp"

namespace greem::pm {
namespace {

/// Rank owning index v under split_range(n, p, .): inverse of the block
/// decomposition.
int block_owner(std::size_t v, std::size_t n, int p) {
  const auto pp = static_cast<std::size_t>(p);
  const std::size_t base = n / pp;
  const std::size_t rem = n % pp;
  const std::size_t boundary = rem * (base + 1);
  if (v < boundary) return static_cast<int>(v / (base + 1));
  return static_cast<int>(rem + (v - boundary) / base);
}

}  // namespace

PencilPm::PencilPm(parx::Comm& world, PencilPmParams params)
    : world_(world), params_(params) {
  const std::size_t n = params_.n_mesh;
  if (params_.pr > 0 && params_.pc > 0) {
    pr_ = params_.pr;
    pc_ = params_.pc;
  } else {
    // Near-square grid over as many ranks as the mesh supports.
    const auto target = std::min<std::size_t>(static_cast<std::size_t>(world.size()), n * n);
    pr_ = static_cast<int>(std::min<std::size_t>(
        n, static_cast<std::size_t>(std::sqrt(static_cast<double>(target)))));
    pr_ = std::max(pr_, 1);
    pc_ = static_cast<int>(std::min<std::size_t>(n, target / static_cast<std::size_t>(pr_)));
    pc_ = std::max(pc_, 1);
  }
  const int npencil = pr_ * pc_;
  if (npencil > world.size() || static_cast<std::size_t>(pr_) > n ||
      static_cast<std::size_t>(pc_) > n)
    throw std::invalid_argument("PencilPm: grid does not fit ranks/mesh");

  fft_comm_ = world.split(world.rank() < npencil ? 0 : 1, world.rank());
  if (is_fft_rank()) {
    fft_.emplace(fft_comm_, n, pr_, pc_);
    // Green table in the z-pencil (transposed output) layout.
    const fft::Range xr = fft_->out_x();
    const fft::Range yr = fft_->out_y();
    green_.resize(fft_->out_cells());
    GreenMemo green({n, params_.effective_rcut(), params_.scheme, 2, params_.G,
                     params_.green, 2});
    for (std::size_t y = yr.begin; y < yr.end(); ++y) {
      const long ky = fft::wavenumber(y, n);
      for (std::size_t x = xr.begin; x < xr.end(); ++x) {
        const long kx = fft::wavenumber(x, n);
        for (std::size_t z = 0; z < n; ++z)
          green_[fft_->out_index(x, y, z)] = green(kx, ky, fft::wavenumber(z, n));
      }
    }
  }
}

int PencilPm::owner_of(std::size_t y, std::size_t z) const {
  return block_owner(y, params_.n_mesh, pr_) * pc_ + block_owner(z, params_.n_mesh, pc_);
}

void PencilPm::update_domain(const Box& domain) {
  density_region_ = region_for_domain(domain, params_.n_mesh, 2);
  force_region_ = density_region_;
  potential_region_ = expand(force_region_, 2);
  world_density_regions_ =
      world_.allgatherv(std::span<const CellRegion>(&density_region_, 1));
  world_potential_regions_ =
      world_.allgatherv(std::span<const CellRegion>(&potential_region_, 1));
}

std::vector<double> PencilPm::gather_density(const LocalMesh& rho) {
  const std::size_t n = params_.n_mesh;
  const auto p = static_cast<std::size_t>(world_.size());

  // Pack: canonical (z, y, x) order over my region, routed by the pencil
  // owner of the wrapped (y, z).
  std::vector<std::vector<double>> send(p);
  const CellRegion& mine = density_region_;
  for (long z = mine.lo[2]; z < mine.hi(2); ++z) {
    const std::size_t gz = wrap_cell(z, n);
    for (long y = mine.lo[1]; y < mine.hi(1); ++y) {
      const auto dest = static_cast<std::size_t>(owner_of(wrap_cell(y, n), gz));
      auto& buf = send[dest];
      for (long x = mine.lo[0]; x < mine.hi(0); ++x) buf.push_back(rho.at(x, y, z));
    }
  }
  auto recv = world_.alltoallv(std::move(send));

  if (!is_fft_rank()) return {};
  std::vector<double> pencil(fft_->in_cells(), 0.0);
  for (std::size_t s = 0; s < p; ++s) {
    const auto& buf = recv[s];
    if (buf.empty()) continue;
    const CellRegion& r = world_density_regions_[s];
    std::size_t i = 0;
    for (long z = r.lo[2]; z < r.hi(2); ++z) {
      const std::size_t gz = wrap_cell(z, n);
      for (long y = r.lo[1]; y < r.hi(1); ++y) {
        const std::size_t gy = wrap_cell(y, n);
        if (owner_of(gy, gz) != world_.rank()) continue;
        for (long x = r.lo[0]; x < r.hi(0); ++x)
          pencil[fft_->in_index(wrap_cell(x, n), gy, gz)] += buf[i++];
      }
    }
    assert(i == buf.size());
  }
  return pencil;
}

LocalMesh PencilPm::scatter_potential(const std::vector<double>& pot) {
  const std::size_t n = params_.n_mesh;
  const auto p = static_cast<std::size_t>(world_.size());

  std::vector<std::vector<double>> send(p);
  if (is_fft_rank()) {
    for (std::size_t d = 0; d < p; ++d) {
      const CellRegion& r = world_potential_regions_[d];
      auto& buf = send[d];
      for (long z = r.lo[2]; z < r.hi(2); ++z) {
        const std::size_t gz = wrap_cell(z, n);
        for (long y = r.lo[1]; y < r.hi(1); ++y) {
          const std::size_t gy = wrap_cell(y, n);
          if (owner_of(gy, gz) != world_.rank()) continue;
          for (long x = r.lo[0]; x < r.hi(0); ++x)
            buf.push_back(pot[fft_->in_index(wrap_cell(x, n), gy, gz)]);
        }
      }
    }
  }
  auto recv = world_.alltoallv(std::move(send));

  const CellRegion& mine = potential_region_;
  LocalMesh out(mine);
  std::vector<std::size_t> cursor(p, 0);
  for (long z = mine.lo[2]; z < mine.hi(2); ++z) {
    const std::size_t gz = wrap_cell(z, n);
    for (long y = mine.lo[1]; y < mine.hi(1); ++y) {
      const auto src = static_cast<std::size_t>(owner_of(wrap_cell(y, n), gz));
      std::size_t& i = cursor[src];
      for (long x = mine.lo[0]; x < mine.hi(0); ++x) out.at(x, y, z) = recv[src][i++];
    }
  }
  return out;
}

void PencilPm::accelerations(std::span<const Vec3> pos, std::span<const double> mass,
                             std::span<Vec3> acc, TimingBreakdown* t) {
  const std::size_t n = params_.n_mesh;
  Stopwatch sw;

  LocalMesh rho(density_region_);
  assign_density(rho, n, params_.scheme, pos, mass);
  if (t) t->add("density assignment", sw.seconds());

  sw.restart();
  auto pencil = gather_density(rho);
  if (t) t->add("communication", sw.seconds());

  sw.restart();
  if (is_fft_rank()) {
    std::vector<fft::Complex> cp(pencil.size());
    for (std::size_t i = 0; i < pencil.size(); ++i) cp[i] = {pencil[i], 0.0};
    auto spec = fft_->forward(cp);
    for (std::size_t i = 0; i < spec.size(); ++i) spec[i] *= green_[i];
    auto back = fft_->inverse(spec);
    for (std::size_t i = 0; i < pencil.size(); ++i) pencil[i] = back[i].real();
  }
  if (t) t->add("FFT", sw.seconds());

  sw.restart();
  LocalMesh phi = scatter_potential(pencil);
  if (t) t->add("communication", sw.seconds());

  sw.restart();
  LocalMesh fx, fy, fz;
  fd_gradient(phi, force_region_, n, fx, fy, fz);
  if (t) t->add("acceleration on mesh", sw.seconds());

  sw.restart();
  parallel_for_chunks(0, pos.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      acc[i] += interpolate(fx, fy, fz, n, params_.scheme, pos[i]);
  });
  if (t) t->add("force interpolation", sw.seconds());
}

}  // namespace greem::pm
