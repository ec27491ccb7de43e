#pragma once
// 1-D slab-decomposed parallel real-to-complex FFT convolution over parx
// (the role FFTW 3.3 MPI plays in the paper).  Each rank owns a contiguous
// set of z-planes of the real mesh.  The forward half runs the x
// (real-to-complex, n/2+1 columns) and y transforms on those planes, one
// all-to-all transpose hands each rank a chunk of kx columns over all z,
// and the z transform runs there.  The Green multiplier is applied in that
// transposed layout, so a convolution transposes once each way.
//
// As in the paper, the parallelism of this transform is limited to at most
// n ranks (one plane each) -- the very limitation that motivates the relay
// mesh method when the job has far more ranks than planes.  With more than
// n/2+1 ranks the last ranks hold no kx column and idle through the z pass.

#include <complex>
#include <cstddef>
#include <vector>

#include "fft/fft1d.hpp"
#include "parx/comm.hpp"

namespace greem::fft {

/// Contiguous 1-D block decomposition of [0, n) over p ranks.
struct Range {
  std::size_t begin = 0;
  std::size_t count = 0;
  std::size_t end() const { return begin + count; }
};

Range split_range(std::size_t n, int p, int r);

class SlabFft {
 public:
  /// `comm` is the FFT communicator (the paper's COMM_FFT); requires
  /// comm.size() <= n and n a power of two.
  SlabFft(parx::Comm comm, std::size_t n);

  std::size_t n() const { return n_; }
  /// This rank's z-planes of the real mesh.
  Range local_z() const { return z_range(comm_.rank()); }
  /// This rank's kx columns of the half spectrum (kx = 0..n/2); empty on
  /// ranks past n/2+1.
  Range local_kx() const { return kx_range(comm_.rank()); }

  std::size_t slab_cells() const { return local_z().count * n_ * n_; }

  /// Index into the local slab: ((z - z0)*n + y)*n + x.
  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return ((z - local_z().begin) * n_ + y) * n_ + x;
  }

  /// Size of this rank's multiplier table: all kz and ky, its kx columns,
  /// laid out (kz*n + ky)*local_kx().count + (kx - local_kx().begin).
  std::size_t green_cells() const { return n_ * n_ * local_kx().count; }

  /// Collective, in place: slab <- IFFT(FFT(slab) * green), with the 1/n^3
  /// of the inverse.  `slab` is this rank's real planes (slab_cells()),
  /// `green` its real multiplier table (green_cells()).  Bitwise equal to
  /// Fft3dR2C::forward, a multiply in the half spectrum and
  /// Fft3dR2C::inverse on the gathered mesh.
  void convolve(std::vector<double>& slab, const std::vector<double>& green);

 private:
  Range z_range(int r) const { return split_range(n_, comm_.size(), r); }
  Range kx_range(int r) const { return split_range(n_ / 2 + 1, comm_.size(), r); }

  parx::Comm comm_;
  std::size_t n_;
  Fft1d line_;
};

}  // namespace greem::fft
