#include "fft/fft3d.hpp"

#include <cassert>

namespace greem::fft {

Fft3d::Fft3d(std::size_t n) : n_(n), line_(n) {}

void Fft3d::transform(std::vector<Complex>& data, bool inverse) const {
  assert(data.size() == cells());
  const std::size_t n = n_;
  // `cols` lines at once, element i of line c at p[i*stride + c].
  auto lines = [&](Complex* p, std::size_t cols, std::size_t stride) {
    if (inverse)
      line_.inverse_columns(p, cols, stride);
    else
      line_.forward_columns(p, cols, stride);
  };
  // x lines (contiguous)
  for (std::size_t row = 0; row < n * n; ++row) {
    if (inverse)
      line_.inverse(&data[row * n]);
    else
      line_.forward(&data[row * n]);
  }
  // y lines: the n columns of each z plane; z lines: the n^2 of the mesh.
  for (std::size_t z = 0; z < n; ++z) lines(&data[index(0, 0, z)], n, n);
  lines(data.data(), n * n, n * n);
}

void Fft3d::forward(std::vector<Complex>& data) const { transform(data, false); }

void Fft3d::inverse(std::vector<Complex>& data) const { transform(data, true); }

Fft3dR2C::Fft3dR2C(std::size_t n) : n_(n), line_(n) {}

std::vector<Complex> Fft3dR2C::forward(const std::vector<double>& real) const {
  assert(real.size() == n_ * n_ * n_);
  const std::size_t n = n_, h = hx();
  std::vector<Complex> out(spectrum_size());
  // x: real-to-complex lines into the half-width layout.
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      line_.forward_r2c(&real[(z * n + y) * n], &out[index(0, y, z)]);
  // y and z: complex lines over the reduced domain, all columns at once.
  for (std::size_t z = 0; z < n; ++z) line_.forward_columns(&out[index(0, 0, z)], h, h);
  line_.forward_columns(out.data(), h * n, h * n);
  return out;
}

std::vector<double> Fft3dR2C::inverse(std::vector<Complex> spec) const {
  assert(spec.size() == spectrum_size());
  const std::size_t n = n_, h = hx();
  line_.inverse_columns(spec.data(), h * n, h * n);
  for (std::size_t z = 0; z < n; ++z) line_.inverse_columns(&spec[index(0, 0, z)], h, h);
  std::vector<double> out(n * n * n);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      line_.inverse_c2r(&spec[index(0, y, z)], &out[(z * n + y) * n]);
  return out;
}

}  // namespace greem::fft
