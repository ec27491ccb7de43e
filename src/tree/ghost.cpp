#include "tree/ghost.hpp"

#include <algorithm>
#include <cmath>

namespace greem::tree {

namespace {

/// Distance from v to the half-open interval [lo, hi) along one axis.
/// Branch-free, so the filter loop vectorizes.  For lo <= hi it equals the
/// three-way form `v < lo ? lo - v : (v >= hi ? v - hi : 0)` up to the sign
/// of a zero (the other difference is then negative or zero), and every
/// use squares it.
inline double gap(double v, double lo, double hi) {
  return std::max(std::max(lo - v, v - hi), 0.0);
}

/// Positions split by axis, so the filter's loads are unit-stride.
struct AxisArrays {
  std::vector<double> x, y, z;
};

/// The filter: a lower bound on the squared distance of every image that
/// could be exported, from the per-axis minimum gaps over the shifts.
/// Rounding is monotone, so an image's distance (summed in the same order)
/// is never below the bound, and a particle whose bound exceeds rcut^2 has
/// no exported image.  For the own domain the unshifted image is never
/// exported, and every other image is shifted along some axis, so the bound
/// is the smallest shifted gap.  Most particles stop here, including
/// everything deep inside its own box.
template <bool kSelf>
void image_bounds(const AxisArrays& p, const Box& box, std::vector<double>& bound) {
  const double lx = box.lo.x, ly = box.lo.y, lz = box.lo.z;
  const double hx = box.hi.x, hy = box.hi.y, hz = box.hi.z;
  const double* px = p.x.data();
  const double* py = p.y.data();
  const double* pz = p.z.data();
  double* out = bound.data();
  const std::size_t n = bound.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = px[i], y = py[i], z = pz[i];
    const double x1 = std::min(gap(x - 1.0, lx, hx), gap(x + 1.0, lx, hx));
    const double y1 = std::min(gap(y - 1.0, ly, hy), gap(y + 1.0, ly, hy));
    const double z1 = std::min(gap(z - 1.0, lz, hz), gap(z + 1.0, lz, hz));
    if constexpr (kSelf) {
      out[i] = std::min(std::min(x1 * x1, y1 * y1), z1 * z1);
    } else {
      const double x0 = std::min(gap(x, lx, hx), x1);
      const double y0 = std::min(gap(y, ly, hy), y1);
      const double z0 = std::min(gap(z, lz, hz), z1);
      out[i] = x0 * x0 + y0 * y0 + z0 * z0;
    }
  }
}

/// The nearest image along each axis and the squared distance it would
/// give: code[i] = sx * 9 + sy * 3 + sz of the per-axis nearest shifts,
/// bound[i] their squared gaps summed in the exact test's order.  When at
/// most one image per axis can lie within rcut of the box (see
/// select_ghosts), that image is the only candidate and bound[i] is exactly
/// its distance.
void nearest_images(const AxisArrays& p, const Box& box, std::vector<double>& bound,
                    std::vector<std::uint8_t>& code) {
  const double lx = box.lo.x, ly = box.lo.y, lz = box.lo.z;
  const double hx = box.hi.x, hy = box.hi.y, hz = box.hi.z;
  const double* px = p.x.data();
  const double* py = p.y.data();
  const double* pz = p.z.data();
  double* out = bound.data();
  std::uint8_t* shift = code.data();
  const std::size_t n = bound.size();
  // Per axis, the smallest of the gaps of v - 1, v and v + 1 and its shift
  // (0 on a tie with the unshifted gap).  Below the interval v - 1 is
  // farther than v, at or above it v + 1 is, so two gaps give the smallest.
  for (std::size_t i = 0; i < n; ++i) {
    const double x = px[i], y = py[i], z = pz[i];
    const double ux = x < lx ? 1.0 : -1.0, uy = y < ly ? 1.0 : -1.0, uz = z < lz ? 1.0 : -1.0;
    const double x0 = gap(x, lx, hx), y0 = gap(y, ly, hy), z0 = gap(z, lz, hz);
    const double x1 = gap(x + ux, lx, hx), y1 = gap(y + uy, ly, hy), z1 = gap(z + uz, lz, hz);
    const double gx = std::min(x0, x1), gy = std::min(y0, y1), gz = std::min(z0, z1);
    const double sx = x1 < x0 ? ux : 0.0, sy = y1 < y0 ? uy : 0.0, sz = z1 < z0 ? uz : 0.0;
    out[i] = gx * gx + gy * gy + gz * gz;
    shift[i] = static_cast<std::uint8_t>(13.0 + 9.0 * sx + 3.0 * sy + sz);
  }
}

/// One exported image: the particle and its shift (sx * 9 + sy * 3 + sz,
/// each shift index 0..2 for -1, 0, +1).
struct Image {
  std::uint32_t index;
  std::uint32_t shift;
};

/// The shift code of the particle itself, never exported to its own domain.
constexpr std::uint32_t kUnshifted = 13;

/// Exact test of the candidates' images, appended to `images` in
/// (particle, x, y, z shift) order.  A shift whose own axis gap exceeds
/// rcut fails every sum it enters (the partial sums are never below any of
/// their terms), so each axis keeps only its in-range shifts and the loops
/// run over those.
void exact_images(std::span<const Vec3> pos, const Box& box, double rcut2, bool self,
                  std::span<const std::uint32_t> candidates, std::vector<Image>& images) {
  for (const std::uint32_t i : candidates) {
    const Vec3 q = pos[i];
    double sq[3][3];  // [axis][shift index], squared gap
    int in_range[3][3];
    int count[3];
    for (std::size_t a = 0; a < 3; ++a) {
      count[a] = 0;
      for (int s = 0; s < 3; ++s) {
        const double g = gap(q[a] + static_cast<double>(s - 1), box.lo[a], box.hi[a]);
        sq[a][s] = g * g;
        in_range[a][count[a]] = s;
        count[a] += sq[a][s] <= rcut2;
      }
    }
    for (int jx = 0; jx < count[0]; ++jx) {
      const int sx = in_range[0][jx];
      const double dx2 = sq[0][sx];
      for (int jy = 0; jy < count[1]; ++jy) {
        const int sy = in_range[1][jy];
        const double dy2 = dx2 + sq[1][sy];
        if (dy2 > rcut2) continue;
        for (int jz = 0; jz < count[2]; ++jz) {
          const int sz = in_range[2][jz];
          const auto shift = static_cast<std::uint32_t>(sx * 9 + sy * 3 + sz);
          if (self && shift == kUnshifted) continue;  // the particle itself
          if (dy2 + sq[2][sz] > rcut2) continue;
          images.push_back({i, shift});
        }
      }
    }
  }
}

}  // namespace

GhostExport select_ghosts(std::span<const Vec3> pos, std::span<const double> mass,
                          std::span<const Box> domains, int self_rank, double rcut) {
  const std::size_t p = domains.size();
  const std::size_t n = pos.size();
  GhostExport out;
  out.pos.resize(p);
  out.mass.resize(p);
  const double rcut2 = rcut * rcut;

  AxisArrays axes{std::vector<double>(n), std::vector<double>(n), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    axes.x[i] = pos[i].x;
    axes.y[i] = pos[i].y;
    axes.z[i] = pos[i].z;
  }
  std::vector<double> bound(n);
  std::vector<std::uint8_t> code(n);
  std::vector<std::uint32_t> candidates(n);
  std::vector<Image> images;

  // A destination receives every periodic image of a particle within rcut
  // of its box: when a domain spans (nearly) a full axis -- small rank
  // grids -- a particle can serve the *same* domain through several
  // images, including its own domain through a shifted image (periodic
  // self-ghosts).  Destinations are handled one at a time, particles in
  // index order and images in (x, y, z) shift order: that is the export
  // order of each destination.
  for (std::size_t d = 0; d < p; ++d) {
    const bool self = static_cast<int>(d) == self_rank;
    const Box& box = domains[d];

    // Images one period apart cannot both lie within rcut of an interval
    // shorter than 1 - 2 rcut (the margin dwarfs the rounding of v +- 1 and
    // of the gaps).  When that holds on every axis -- every rank grid with
    // at least two cuts per axis and a short cutoff -- each particle has
    // one candidate image, its nearest, exported when within rcut: the
    // exact test below would find the same image and the same sum.
    constexpr double kMargin = 1e-9;
    const Vec3 extent = box.extent();
    std::size_t ne = 0;
    if (std::max({extent.x, extent.y, extent.z}) + 2 * rcut < 1.0 - kMargin) {
      nearest_images(axes, box, bound, code);
      if (images.size() < n) images.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        images[ne] = {static_cast<std::uint32_t>(i), code[i]};
        ne += static_cast<std::size_t>((bound[i] <= rcut2) & !(self & (code[i] == kUnshifted)));
      }
    } else {
      if (self) image_bounds<true>(axes, box, bound);
      else image_bounds<false>(axes, box, bound);
      std::size_t nc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        candidates[nc] = static_cast<std::uint32_t>(i);
        nc += bound[i] <= rcut2;
      }
      images.clear();
      exact_images(pos, box, rcut2, self, std::span(candidates.data(), nc), images);
      ne = images.size();
    }

    // Export, sized exactly.
    auto& dpos = out.pos[d];
    auto& dmass = out.mass[d];
    dpos.reserve(ne);
    dmass.reserve(ne);
    for (std::size_t k = 0; k < ne; ++k) {
      const auto [i, s] = images[k];
      dpos.push_back(pos[i] + Vec3{static_cast<double>(static_cast<int>(s / 9) - 1),
                                   static_cast<double>(static_cast<int>(s / 3 % 3) - 1),
                                   static_cast<double>(static_cast<int>(s % 3) - 1)});
      dmass.push_back(mass[i]);
    }
  }
  return out;
}

}  // namespace greem::tree
