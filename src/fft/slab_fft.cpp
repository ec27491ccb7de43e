#include "fft/slab_fft.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace greem::fft {

Range split_range(std::size_t n, int p, int r) {
  const auto pp = static_cast<std::size_t>(p);
  const auto rr = static_cast<std::size_t>(r);
  const std::size_t base = n / pp;
  const std::size_t rem = n % pp;
  Range out;
  out.begin = rr * base + std::min(rr, rem);
  out.count = base + (rr < rem ? 1 : 0);
  return out;
}

SlabFft::SlabFft(parx::Comm comm, std::size_t n) : comm_(comm), n_(n), line_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("SlabFft: n must be a power of two");
  if (static_cast<std::size_t>(comm_.size()) > n)
    throw std::invalid_argument("SlabFft: more ranks than planes (1-D slab limit)");
}

void SlabFft::convolve(std::vector<double>& slab, const std::vector<double>& green) {
  assert(slab.size() == slab_cells() && green.size() == green_cells());
  const std::size_t n = n_, h = n / 2 + 1;
  const auto p = static_cast<std::size_t>(comm_.size());
  const Range zr = local_z(), xr = local_kx();

  // x (real to h columns) and y on my planes: planes[((z - z0)*n + y)*h + kx].
  std::vector<Complex> planes(zr.count * n * h);
  for (std::size_t zi = 0; zi < zr.count; ++zi) {
    Complex* plane = &planes[zi * n * h];
    for (std::size_t y = 0; y < n; ++y) line_.forward_r2c(&slab[(zi * n + y) * n], plane + y * h);
    line_.forward_columns(plane, h, h);
  }

  // Transpose: rank d gets its kx columns of my planes, z-major, then y.
  // Every source's block is then one run of the chunk layout
  // chunk[(z*n + y)*cx + (kx - kx0)], which holds all z.
  std::vector<std::vector<Complex>> send(p);
  for (std::size_t d = 0; d < p; ++d) {
    const Range xd = kx_range(static_cast<int>(d));
    auto& buf = send[d];
    buf.reserve(zr.count * n * xd.count);
    for (std::size_t row = 0; row < zr.count * n; ++row) {
      const Complex* src = &planes[row * h + xd.begin];
      buf.insert(buf.end(), src, src + xd.count);
    }
  }
  auto recv = comm_.alltoallv(std::move(send));
  const std::size_t cx = xr.count;
  std::vector<Complex> chunk(n * n * cx);
  for (std::size_t s = 0; s < p; ++s) {
    const auto& buf = recv[s];
    assert(buf.size() == z_range(static_cast<int>(s)).count * n * cx);
    std::copy(buf.begin(), buf.end(), chunk.begin() + z_range(static_cast<int>(s)).begin * n * cx);
  }

  // z: the n*cx lines of the chunk at once; the multiplier; z back.
  line_.forward_columns(chunk.data(), n * cx, n * cx);
  for (std::size_t i = 0; i < chunk.size(); ++i) chunk[i] *= green[i];
  line_.inverse_columns(chunk.data(), n * cx, n * cx);

  // Transpose back: rank d gets its planes of my kx columns.
  send.assign(p, {});
  for (std::size_t d = 0; d < p; ++d) {
    const Range zd = z_range(static_cast<int>(d));
    send[d].assign(chunk.begin() + zd.begin * n * cx, chunk.begin() + zd.end() * n * cx);
  }
  recv = comm_.alltoallv(std::move(send));
  for (std::size_t s = 0; s < p; ++s) {
    const Range xs = kx_range(static_cast<int>(s));
    const Complex* src = recv[s].data();
    for (std::size_t row = 0; row < zr.count * n; ++row, src += xs.count)
      std::copy(src, src + xs.count, &planes[row * h + xs.begin]);
  }

  // y back, then complex to real along x.
  for (std::size_t zi = 0; zi < zr.count; ++zi) {
    Complex* plane = &planes[zi * n * h];
    line_.inverse_columns(plane, h, h);
    for (std::size_t y = 0; y < n; ++y) line_.inverse_c2r(plane + y * h, &slab[(zi * n + y) * n]);
  }
}

}  // namespace greem::fft
