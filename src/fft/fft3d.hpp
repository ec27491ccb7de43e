#pragma once
// Serial in-core 3-D complex FFT on an n^3 mesh, built from 1-D plans.
// Layout is row-major with x fastest: index(x,y,z) = (z*n + y)*n + x.

#include <complex>
#include <cstddef>
#include <vector>

#include "fft/fft1d.hpp"

namespace greem::fft {

class Fft3d {
 public:
  explicit Fft3d(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t cells() const { return n_ * n_ * n_; }

  static std::size_t index(std::size_t n, std::size_t x, std::size_t y, std::size_t z) {
    return (z * n + y) * n + x;
  }
  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return index(n_, x, y, z);
  }

  /// In-place forward transform of an n^3 complex field.
  void forward(std::vector<Complex>& data) const;

  /// In-place inverse transform including the 1/n^3 normalization.
  void inverse(std::vector<Complex>& data) const;

 private:
  void transform(std::vector<Complex>& data, bool inverse) const;

  std::size_t n_;
  Fft1d line_;
};

/// Signed integer wave number of FFT bin i on an n-mesh: 0..n/2, then
/// negative frequencies (-n/2+1..-1).  k_phys = 2*pi*wavenumber in a unit box.
inline long wavenumber(std::size_t i, std::size_t n) {
  return static_cast<long>(i) <= static_cast<long>(n) / 2
             ? static_cast<long>(i)
             : static_cast<long>(i) - static_cast<long>(n);
}

/// Real-input 3-D FFT storing only the non-redundant half spectrum
/// (kx = 0..n/2): half the memory and nearly half the flops of the
/// complex transform -- the production path of the PM solver.
/// Layout: index (z*n + y)*(n/2+1) + x, x = 0..n/2.
class Fft3dR2C {
 public:
  explicit Fft3dR2C(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t hx() const { return n_ / 2 + 1; }
  std::size_t spectrum_size() const { return hx() * n_ * n_; }
  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return (z * n_ + y) * hx() + x;
  }

  /// Forward transform of an n^3 real field into the half spectrum.
  std::vector<Complex> forward(const std::vector<double>& real) const;

  /// Inverse transform (1/n^3 included) back to an n^3 real field.
  std::vector<double> inverse(std::vector<Complex> half_spectrum) const;

 private:
  std::size_t n_;
  Fft1d line_;
};

}  // namespace greem::fft
