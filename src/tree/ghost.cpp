#include "tree/ghost.hpp"

#include <algorithm>
#include <cmath>

namespace greem::tree {

namespace {

/// Distance from v to the half-open interval [lo, hi) along one axis.
inline double gap(double v, double lo, double hi) {
  return v < lo ? lo - v : (v >= hi ? v - hi : 0.0);
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

  // All 27 periodic images of each particle are tested against each
  // destination domain: when a domain spans (nearly) a full axis -- small
  // rank grids -- a particle can serve the *same* domain through several
  // images, including its own domain through a shifted image (periodic
  // self-ghosts).  Destinations are handled one at a time, particles in
  // index order and images in (x, y, z) shift order: that is the export
  // order of each destination.
  std::vector<std::uint32_t> candidates(n);
  for (std::size_t d = 0; d < p; ++d) {
    const bool self = static_cast<int>(d) == self_rank;
    const Box& box = domains[d];
    const double lx = box.lo.x, ly = box.lo.y, lz = box.lo.z;
    const double hx = box.hi.x, hy = box.hi.y, hz = box.hi.z;

    // Filter: a lower bound on the squared distance of every image that
    // could be exported, from the per-axis minimum gaps over the shifts.
    // Rounding is monotone, so an image's distance (summed in the same
    // order) is never below the bound, and a particle whose bound exceeds
    // rcut^2 has no exported image.  For the own domain the unshifted
    // image is never exported, and every other image is shifted along
    // some axis, so the bound is the smallest shifted gap.  Most particles
    // stop here, including everything deep inside its own box.
    std::size_t nc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = pos[i].x, y = pos[i].y, z = pos[i].z;
      const double x1 = std::min(gap(x - 1.0, lx, hx), gap(x + 1.0, lx, hx));
      const double y1 = std::min(gap(y - 1.0, ly, hy), gap(y + 1.0, ly, hy));
      const double z1 = std::min(gap(z - 1.0, lz, hz), gap(z + 1.0, lz, hz));
      double bound;
      if (self) {
        bound = std::min({x1 * x1, y1 * y1, z1 * z1});
      } else {
        const double x0 = std::min(gap(x, lx, hx), x1);
        const double y0 = std::min(gap(y, ly, hy), y1);
        const double z0 = std::min(gap(z, lz, hz), z1);
        bound = x0 * x0 + y0 * y0 + z0 * z0;
      }
      candidates[nc] = static_cast<std::uint32_t>(i);
      nc += bound <= rcut2;
    }

    // Exact test of the candidates' images.  Per-axis gaps for the three
    // shifts are computed once, so most of the 27 combinations exit at the
    // first axis.
    auto& dpos = out.pos[d];
    auto& dmass = out.mass[d];
    dpos.reserve(nc);
    dmass.reserve(nc);
    for (std::size_t k = 0; k < nc; ++k) {
      const std::uint32_t i = candidates[k];
      const Vec3 q = pos[i];
      double ax[3][3];  // [axis][shift index 0..2 for -1,0,+1]
      for (std::size_t a = 0; a < 3; ++a)
        for (int s = 0; s < 3; ++s)
          ax[a][s] = gap(q[a] + static_cast<double>(s - 1), box.lo[a], box.hi[a]);
      for (int sx = 0; sx < 3; ++sx) {
        const double dx2 = ax[0][sx] * ax[0][sx];
        if (dx2 > rcut2) continue;
        for (int sy = 0; sy < 3; ++sy) {
          const double dy2 = dx2 + ax[1][sy] * ax[1][sy];
          if (dy2 > rcut2) continue;
          for (int sz = 0; sz < 3; ++sz) {
            if (self && sx == 1 && sy == 1 && sz == 1) continue;  // the particle itself
            if (dy2 + ax[2][sz] * ax[2][sz] > rcut2) continue;
            dpos.push_back(q + Vec3{static_cast<double>(sx - 1), static_cast<double>(sy - 1),
                                    static_cast<double>(sz - 1)});
            dmass.push_back(mass[i]);
          }
        }
      }
    }
  }
  return out;
}

}  // namespace greem::tree
