#include "pp/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "pp/cutoff.hpp"

namespace greem::pp {

void InteractionList::add(const Vec3& pos, double mass) {
  grow(len_ + 1);
  x[len_] = pos.x;
  y[len_] = pos.y;
  z[len_] = pos.z;
  m[len_] = mass;
  ++len_;
}

void InteractionList::grow(std::size_t n) {
  if (x.size() >= n) return;
  const std::size_t cap = std::max(n, 2 * x.size());
  for (std::vector<double>* col : {&x, &y, &z, &m}) col->resize(cap);
}

void InteractionList::set_size(std::size_t n) {
  assert(n <= x.size());
  len_ = n;
}

void InteractionList::pad4() {
  // Far-away massless sources: xi clamps to the cutoff edge, g = 0, m = 0.
  while (len_ % 4 != 0) add({1.0e9, 1.0e9, 1.0e9}, 0.0);
}

void pp_kernel_scalar(std::span<const Vec3> xi, std::span<Vec3> acc,
                      const InteractionList& list, double rcut, double eps2) {
  const double two_over_rcut = 2.0 / rcut;
  const std::size_t nj = list.size();
  for (std::size_t i = 0; i < xi.size(); ++i) {
    Vec3 a{};
    const Vec3 pi = xi[i];
    for (std::size_t j = 0; j < nj; ++j) {
      const double dx = list.x[j] - pi.x;
      const double dy = list.y[j] - pi.y;
      const double dz = list.z[j] - pi.z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      if (r2 == 0.0) continue;  // exact self-interaction with eps = 0
      const double rinv = 1.0 / std::sqrt(r2);
      const double r = r2 * rinv;
      const double g = g_p3m(r * two_over_rcut);
      const double f = list.m[j] * g * rinv * rinv * rinv;
      a.x += f * dx;
      a.y += f * dy;
      a.z += f * dz;
    }
    acc[i] += a;
  }
}

void pp_kernel_newton(std::span<const Vec3> xi, std::span<Vec3> acc,
                      const InteractionList& list, double eps2) {
  const std::size_t nj = list.size();
  for (std::size_t i = 0; i < xi.size(); ++i) {
    Vec3 a{};
    const Vec3 pi = xi[i];
    for (std::size_t j = 0; j < nj; ++j) {
      const double dx = list.x[j] - pi.x;
      const double dy = list.y[j] - pi.y;
      const double dz = list.z[j] - pi.z;
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      if (r2 == 0.0) continue;  // exact self-interaction with eps = 0
      const double rinv = 1.0 / std::sqrt(r2);
      const double f = list.m[j] * rinv * rinv * rinv;
      a.x += f * dx;
      a.y += f * dy;
      a.z += f * dz;
    }
    acc[i] += a;
  }
}

void pp_kernel_quadrupole(std::span<const Vec3> xi, std::span<Vec3> acc,
                          std::span<const QuadSource> nodes, double eps2) {
  for (std::size_t i = 0; i < xi.size(); ++i) {
    Vec3 a{};
    for (const QuadSource& s : nodes) {
      const Vec3 r = xi[i] - s.com;
      const double r2 = r.norm2() + eps2;
      const double rinv = 1.0 / std::sqrt(r2);
      const double rinv2 = rinv * rinv;
      const double rinv3 = rinv * rinv2;
      const double rinv5 = rinv3 * rinv2;
      const double rinv7 = rinv5 * rinv2;
      // Q.r and r.Q.r from the packed symmetric tensor.
      const auto& q = s.quad;
      const Vec3 qr{q[0] * r.x + q[1] * r.y + q[2] * r.z,
                    q[1] * r.x + q[3] * r.y + q[4] * r.z,
                    q[2] * r.x + q[4] * r.y + q[5] * r.z};
      const double rqr = r.dot(qr);
      a += r * (-s.mass * rinv3) + qr * rinv5 - r * (2.5 * rqr * rinv7);
    }
    acc[i] += a;
  }
}

}  // namespace greem::pp
