#pragma once
// Iterative radix-2 complex FFT with precomputed twiddles and bit-reversal
// permutation.  This replaces FFTW's serial engine; transform lengths are
// powers of two (PM mesh sizes always are).

#include <complex>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

namespace greem::fft {

using Complex = std::complex<double>;

/// Plan for length-n transforms (n a power of two, n >= 1).  One plan
/// serves one thread at a time: the r2c/c2r paths pack into its scratch.
class Fft1d {
 public:
  explicit Fft1d(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward DFT: X[k] = sum_j x[j] exp(-2πi jk/n).
  void forward(Complex* data) const;

  /// In-place inverse DFT including the 1/n normalization.
  void inverse(Complex* data) const;

  /// Forward/inverse of `cols` lines at once: element i of line c lives at
  /// data[i*stride + c] (stride >= cols).  The butterflies run with the
  /// inner loop over the lines, so no line is copied out; each line sees
  /// the operations of forward()/inverse() in the same order, so the
  /// results are bitwise theirs.
  void forward_columns(Complex* data, std::size_t cols, std::size_t stride) const;
  void inverse_columns(Complex* data, std::size_t cols, std::size_t stride) const;

  /// Real-to-complex forward transform of a length-n real line (n >= 2):
  /// writes the n/2+1 non-redundant spectrum coefficients (the rest follow
  /// from X[n-k] = conj(X[k])).  Runs one complex FFT of length n/2 via
  /// even/odd packing -- the standard halving trick.
  void forward_r2c(const double* in, Complex* out) const;

  /// Inverse of forward_r2c including the 1/n normalization; `in` holds
  /// n/2+1 coefficients (X[0] and X[n/2] must be real up to rounding).
  void inverse_c2r(const Complex* in, double* out) const;

 private:
  void transform(Complex* data, bool inverse) const;
  void transform_columns(Complex* data, std::size_t cols, std::size_t stride,
                         bool inverse) const;

  std::size_t n_;
  int log2n_;
  std::vector<std::size_t> bitrev_;
  std::vector<Complex> twiddle_fwd_;  // exp(-2πi k/n), k < n/2
  std::vector<Complex> twiddle_inv_;
  mutable std::vector<Complex> scratch_;  // r2c/c2r packing, n/2 long
  /// Half-length plan for the r2c/c2r path (lazy, only for n >= 2).
  mutable std::unique_ptr<Fft1d> half_;
  Fft1d* half_plan() const;
};

/// True iff n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n (n >= 1).  Throws std::overflow_error when
/// no std::size_t power of two is that large (n > 2^63 on 64-bit).
constexpr std::size_t next_pow2(std::size_t n) {
  constexpr std::size_t kTop = ~(~std::size_t{0} >> 1);
  if (n > kTop) throw std::overflow_error("next_pow2: no power of two >= n fits in size_t");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace greem::fft
