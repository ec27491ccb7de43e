#pragma once
// k-space Green's functions of the long-range (PM) force.
//
// The PM part must reproduce the S2 cloud-cloud pair force whose
// short-range complement is exactly gP3M (paper eq. 3); its continuum
// potential multiplier is
//
//   G(k) = -4 pi G / k^2 * s2(k rcut / 2)^2,    k = 2 pi |n|,
//
// with s2 the Fourier transform of the S2 cloud shape (pp::s2_fourier).
//
// Two discrete realizations are provided:
//
//  * kSimple -- G(k) divided by the assignment window W(k)^p
//    (p = deconv_power, compensating density assignment and force
//    interpolation).  Cheap but leaves percent-level aliasing error near
//    the mesh scale.
//
//  * kOptimal (default) -- the Hockney & Eastwood optimal influence
//    function for the S2 reference force, the choice of the P3M/GreeM
//    lineage: it minimizes the mean-square force error over particle
//    positions given the TSC assignment window U, the 4-point finite
//    difference operator D, and aliasing:
//
//      G_opt(k) = - sum_a d_a(k) [ sum_n U^2(k_n) r_a(k_n) ]
//                 / ( |d(k)|^2 [ sum_n U^2(k_n) ]^2 ),
//
//    where k_n = k + 2 pi N n are the alias images, r(k) = 4 pi k s2^2/k^2
//    is the reference force spectrum and d(k) the FD transfer function.
//
// Both kinds are invariant under the 48 sign flips and axis permutations
// of k, so a table needs one evaluation per class (|kx|, |ky|, |kz|):
// GreenMemo evaluates each class once, at its sorted absolute
// wavenumbers, and every table builder fills through it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pm/assign.hpp"

namespace greem::pm {

enum class GreenKind { kSimple, kOptimal };

struct GreenParams {
  std::size_t n_mesh = 0;
  double rcut = 0;
  Scheme scheme = Scheme::kTSC;
  int deconv_power = 2;  ///< kSimple only
  double G = 1.0;        ///< gravitational constant (unit box)
  GreenKind kind = GreenKind::kOptimal;
  int alias_range = 2;   ///< kOptimal: aliases summed over [-range, range]^3
};

/// Simple potential multiplier at integer wavenumber (kx, ky, kz),
/// each in (-n/2, n/2].
double green_potential(const GreenParams& p, long kx, long ky, long kz);

/// Optimal influence function at one wavenumber (slow; use the table).
/// Evaluated at the sorted absolute wavenumbers, so all 48 cubic images of
/// a mode get identical bits.  Modes the FD cannot act on (every nonzero
/// component at the Nyquist wavenumber n/2) are exactly 0.
double green_optimal(const GreenParams& p, long kx, long ky, long kz);

/// Value of the configured kind at one wavenumber.
double green_value(const GreenParams& p, long kx, long ky, long kz);

/// green_value memoized per symmetry class, keyed by the sorted absolute
/// wavenumbers n/2 >= a >= b >= c >= 0: C(n/2+3, 3) entries, each evaluated
/// on first use.  One per table build; counts "pm/green_tables" (one per
/// memo) and "pm/green_evals" (one per class evaluated).
class GreenMemo {
 public:
  explicit GreenMemo(const GreenParams& p);
  double operator()(long kx, long ky, long kz);
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  GreenParams p_;
  std::vector<double> value_;  ///< NaN until evaluated
  std::uint64_t evaluations_ = 0;
};

/// Half-spectrum multiplier table for the kx columns [x_begin, x_end)
/// (x_end <= n/2+1; all ky and kz), laid out (z*n + y)*(x_end - x_begin) +
/// (x - x_begin): the kx-chunk layout fft::SlabFft::convolve multiplies
/// in.  The multiplier is real and even in k, so the half spectrum
/// suffices; only the symmetry classes the chunk touches are evaluated.
std::vector<double> build_green_table_r2c(const GreenParams& p, std::size_t x_begin,
                                          std::size_t x_end);

/// The whole half spectrum, x = 0..n/2: fft::Fft3dR2C's layout
/// (z*n + y)*(n/2+1) + x.
std::vector<double> build_green_table_r2c(const GreenParams& p);

}  // namespace greem::pm
