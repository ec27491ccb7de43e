#include "fft/fft1d.hpp"

#include <algorithm>
#include <cassert>
#include <numbers>
#include <stdexcept>

namespace greem::fft {

Fft1d::Fft1d(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("Fft1d: length must be a power of two");
  log2n_ = 0;
  while ((std::size_t{1} << log2n_) < n) ++log2n_;

  bitrev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n_; ++b)
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n_ - 1 - b);
    bitrev_[i] = r;
  }

  twiddle_fwd_.resize(n / 2 + 1);
  twiddle_inv_.resize(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    double ang = -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    twiddle_fwd_[k] = {std::cos(ang), std::sin(ang)};
    twiddle_inv_[k] = std::conj(twiddle_fwd_[k]);
  }
  scratch_.resize(n / 2);
}

void Fft1d::transform(Complex* data, bool inverse) const {
  const auto& tw = inverse ? twiddle_inv_ : twiddle_fwd_;
  // Bit-reversal permutation.
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Danielson-Lanczos ladder.
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n_ / len;  // twiddle stride
    for (std::size_t base = 0; base < n_; base += len) {
      for (std::size_t k = 0; k < half; ++k) {
        Complex w = tw[k * step];
        Complex u = data[base + k];
        Complex v = data[base + k + half] * w;
        data[base + k] = u + v;
        data[base + k + half] = u - v;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) data[i] *= inv_n;
  }
}

void Fft1d::forward(Complex* data) const { transform(data, false); }

void Fft1d::inverse(Complex* data) const { transform(data, true); }

void Fft1d::forward_columns(Complex* data, std::size_t cols, std::size_t stride) const {
  transform_columns(data, cols, stride, false);
}

void Fft1d::inverse_columns(Complex* data, std::size_t cols, std::size_t stride) const {
  transform_columns(data, cols, stride, true);
}

void Fft1d::transform_columns(Complex* data, std::size_t cols, std::size_t stride,
                              bool inverse) const {
  assert(stride >= cols);
  const auto& tw = inverse ? twiddle_inv_ : twiddle_fwd_;
  auto row = [&](std::size_t i) { return data + i * stride; };
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap_ranges(row(i), row(i) + cols, row(j));
  }
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n_ / len;
    for (std::size_t base = 0; base < n_; base += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Complex w = tw[k * step];
        Complex* a = row(base + k);
        Complex* b = row(base + k + half);
        for (std::size_t c = 0; c < cols; ++c) {
          const Complex u = a[c];
          const Complex v = b[c] * w;
          a[c] = u + v;
          b[c] = u - v;
        }
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t c = 0; c < cols; ++c) row(i)[c] *= inv_n;
  }
}

Fft1d* Fft1d::half_plan() const {
  if (!half_) half_ = std::make_unique<Fft1d>(n_ / 2);
  return half_.get();
}

void Fft1d::forward_r2c(const double* in, Complex* out) const {
  const std::size_t n = n_;
  if (n == 1) {
    out[0] = {in[0], 0.0};
    return;
  }
  const std::size_t h = n / 2;
  // Pack even/odd samples into one half-length complex line.
  Complex* z = scratch_.data();
  for (std::size_t j = 0; j < h; ++j) z[j] = {in[2 * j], in[2 * j + 1]};
  half_plan()->forward(z);
  // Unpack: X[k] = E[k] + W^k O[k], E/O from the Hermitian split of Z,
  // pairing Z[k] with Z[h - k] (and k = 0, h both with Z[0]).
  auto unpack = [&](std::size_t k, const Complex zk, const Complex zc) {
    const Complex even = 0.5 * (zk + zc);
    const Complex odd = Complex(0.0, -0.5) * (zk - zc);
    out[k] = even + twiddle_fwd_[k] * odd;
  };
  unpack(0, z[0], std::conj(z[0]));
  for (std::size_t k = 1; k < h; ++k) unpack(k, z[k], std::conj(z[h - k]));
  unpack(h, z[0], std::conj(z[0]));
}

void Fft1d::inverse_c2r(const Complex* in, double* out) const {
  const std::size_t n = n_;
  if (n == 1) {
    out[0] = in[0].real();
    return;
  }
  const std::size_t h = n / 2;
  // Rebuild the packed half-length spectrum: Z[k] = E[k] + i O[k] with
  // E[k] = (X[k] + conj(X[h-k]))/2, O[k] = W^{-k} (X[k] - conj(X[h-k]))/2.
  Complex* z = scratch_.data();
  for (std::size_t k = 0; k < h; ++k) {
    const Complex xk = in[k];
    const Complex xc = std::conj(in[h - k]);
    const Complex even = 0.5 * (xk + xc);
    const Complex odd = twiddle_inv_[k] * (0.5 * (xk - xc));
    z[k] = even + Complex(0.0, 1.0) * odd;
  }
  // The half-length inverse (1/h) reconstructs the packed samples exactly:
  // IFFT_h(E)[j] = x[2j] and IFFT_h(O)[j] = x[2j+1] by definition of E, O.
  half_plan()->inverse(z);
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
}

}  // namespace greem::fft
