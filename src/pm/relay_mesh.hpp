#pragma once
// Mesh-layout conversion between the 3-D particle domain decomposition and
// the 1-D FFT slab decomposition (paper §II-B), with both methods:
//
//  * kDirect — the straightforward conversion: one global alltoallv over
//    the world communicator.  Each FFT process then receives a message from
//    every rank whose local mesh overlaps its slab (~p^(2/3) senders; ~4000
//    on the full K computer), which congests its endpoint.
//
//  * kRelay — the paper's relay mesh method: ranks are divided into groups
//    of size >= the number of FFT processes (group 0, the "root group",
//    contains the FFT processes).  The global exchange is replaced by a
//    local alltoallv inside each group (COMM_SMALLA2A), building partial
//    slabs, followed by a reduction across groups (COMM_REDUCE) onto the
//    root group.  The backward path mirrors it: bcast across groups, then
//    local alltoallv inside each group.
//
// Slab plane z belongs to FFT rank f iff z is in split_range(n, n_fft, f);
// payloads are raw cell values in a canonical order both sides derive from
// the (allgathered) region geometries, so no coordinates travel.

#include <cstddef>
#include <vector>

#include "fft/slab_fft.hpp"
#include "pm/mesh.hpp"
#include "parx/comm.hpp"
#include "util/timer.hpp"

namespace greem::pm {

enum class MeshConversion { kDirect, kRelay };

struct ConverterParams {
  std::size_t n_mesh = 64;
  int n_fft = 0;  ///< 0 => min(world size, n_mesh)
  MeshConversion method = MeshConversion::kDirect;
  int n_groups = 1;  ///< relay only; kDirect ignores it
};

class MeshConverter {
 public:
  /// Collective over `world`.  Builds the FFT communicator (COMM_FFT) and,
  /// for kRelay, COMM_SMALLA2A / COMM_REDUCE via comm splits.
  MeshConverter(parx::Comm& world, ConverterParams params);

  const ConverterParams& params() const { return params_; }
  bool is_fft_rank() const;
  /// FFT communicator; valid only on FFT ranks.
  parx::Comm& fft_comm() { return comm_fft_; }

  /// z-planes of this rank's slab (empty unless an FFT rank).
  fft::Range my_slab() const;

  /// FFT rank owning global plane z.
  int plane_owner(std::size_t z) const;

  /// Collective: publish this rank's density/potential regions (they change
  /// whenever the domain decomposition moves boundaries).
  void set_regions(const CellRegion& density_region, const CellRegion& potential_region);

  /// Forward conversion: local density meshes -> complete density slabs on
  /// the FFT ranks (summing overlapping contributions in sender rank order,
  /// whatever the arrival order).  Returns the slab (z-major, ny = nx =
  /// n_mesh); empty on non-FFT ranks.
  std::vector<double> gather_density(const LocalMesh& local_density, TimingBreakdown* t);

  /// Backward conversion: potential slabs on the FFT ranks -> each rank's
  /// local potential mesh over its potential region.  Call on every rank;
  /// `slab_phi` is ignored on non-slab-holders.
  LocalMesh scatter_potential(const std::vector<double>& slab_phi, TimingBreakdown* t);

 private:
  int group_of(int world_rank) const;
  int group_start(int g) const;

  /// The conversion communicator (world for kDirect, my group for kRelay)
  /// and that communicator's slice of a world-indexed region table.
  parx::Comm& conv_comm();
  std::vector<CellRegion> conv_slice(const std::vector<CellRegion>& world_regions) const;

  // Pack/unpack halves of the conversion over one communicator whose
  // ranks 0..n_fft-1 hold slabs; `regions` holds the region of each comm
  // member.  Unpack replays every sender's canonical order, accumulating
  // in sender rank order regardless of arrival order.
  std::vector<std::vector<double>> forward_pack(parx::Comm& comm,
                                                const std::vector<CellRegion>& regions,
                                                const LocalMesh& local_density);
  std::vector<double> forward_unpack(parx::Comm& comm, const std::vector<CellRegion>& regions,
                                     const std::vector<std::vector<double>>& recv);
  std::vector<std::vector<double>> backward_pack(parx::Comm& comm,
                                                 const std::vector<CellRegion>& regions,
                                                 const std::vector<double>& slab_phi);
  LocalMesh backward_unpack(parx::Comm& comm, const std::vector<CellRegion>& regions,
                            const std::vector<std::vector<double>>& recv);

  parx::Comm world_;
  ConverterParams params_;
  parx::Comm comm_fft_;      // FFT ranks only
  parx::Comm comm_smalla2a_; // relay: my group
  parx::Comm comm_reduce_;   // relay: same in-group position across groups
  int n_groups_eff_ = 1;
  int base_group_size_ = 0;

  CellRegion density_region_, potential_region_;
  std::vector<CellRegion> world_density_regions_;
  std::vector<CellRegion> world_potential_regions_;
};

}  // namespace greem::pm
