#include "pm/relay_mesh.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace greem::pm {

namespace {

// Brackets one conversion phase with a traffic-ledger epoch and exports
// the delta into the metrics registry as pm/traffic/<phase>/{messages,
// bytes,model_time_us}.  Only world rank 0 observes (the ledger is global,
// so one observer sees everyone's traffic; N observers would count it N
// times).  Phase boundaries are not globally quiescent here, so a rank
// still inside the previous phase blurs the per-phase split -- totals
// stay exact (see parx/traffic.hpp).
class PhaseProbe {
 public:
  PhaseProbe(parx::Comm& world, const char* phase) {
    if (telemetry::enabled() && world.rank() == 0)
      epoch_.emplace(world.ledger().begin_phase(phase));
  }

  ~PhaseProbe() {
    if (!epoch_) return;
    const parx::TrafficTotals tot = epoch_->totals();
    const double us = epoch_->model_time() * 1e6;
    auto& reg = telemetry::Registry::global();
    const std::string base = "pm/traffic/" + epoch_->name();
    reg.counter(base + "/messages").add(tot.messages);
    reg.counter(base + "/bytes").add(tot.bytes);
    reg.counter(base + "/model_time_us").add(static_cast<std::uint64_t>(us));
  }

  PhaseProbe(const PhaseProbe&) = delete;
  PhaseProbe& operator=(const PhaseProbe&) = delete;

 private:
  std::optional<parx::TrafficLedger::Epoch> epoch_;
};

}  // namespace

MeshConverter::MeshConverter(parx::Comm& world, ConverterParams params)
    : world_(world), params_(params) {
  const int p = world.size();
  if (params_.n_fft <= 0)
    params_.n_fft = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(p), params_.n_mesh));
  params_.n_fft = std::min({params_.n_fft, p, static_cast<int>(params_.n_mesh)});

  // COMM_FFT: the processes that perform the FFT, chosen as ranks
  // 0..n_fft-1 (the paper picks physically close nodes via MPI_Comm_split;
  // rank order is our stand-in for physical locality).
  comm_fft_ = world.split(world.rank() < params_.n_fft ? 0 : 1, world.rank());

  if (params_.method == MeshConversion::kRelay) {
    n_groups_eff_ = std::max(1, params_.n_groups);
    // Every group must hold at least n_fft processes so its first n_fft
    // members can carry partial slabs.
    n_groups_eff_ = std::min(n_groups_eff_, std::max(1, p / params_.n_fft));
    base_group_size_ = p / n_groups_eff_;
    comm_smalla2a_ = world.split(group_of(world.rank()), world.rank());
    const int g = group_of(world.rank());
    comm_reduce_ = world.split(world.rank() - group_start(g), g);
  }
}

int MeshConverter::group_of(int world_rank) const {
  return std::min(world_rank / base_group_size_, n_groups_eff_ - 1);
}

int MeshConverter::group_start(int g) const { return g * base_group_size_; }

bool MeshConverter::is_fft_rank() const { return world_.rank() < params_.n_fft; }

fft::Range MeshConverter::my_slab() const {
  if (!is_fft_rank()) return {};
  return fft::split_range(params_.n_mesh, params_.n_fft, world_.rank());
}

int MeshConverter::plane_owner(std::size_t z) const {
  const std::size_t n = params_.n_mesh;
  const auto pf = static_cast<std::size_t>(params_.n_fft);
  const std::size_t base = n / pf;
  const std::size_t rem = n % pf;
  const std::size_t boundary = rem * (base + 1);
  if (z < boundary) return static_cast<int>(z / (base + 1));
  return static_cast<int>(rem + (z - boundary) / base);
}

void MeshConverter::set_regions(const CellRegion& density_region,
                                const CellRegion& potential_region) {
  density_region_ = density_region;
  potential_region_ = potential_region;
  static_assert(std::is_trivially_copyable_v<CellRegion>);
  world_density_regions_ =
      world_.allgatherv(std::span<const CellRegion>(&density_region_, 1));
  world_potential_regions_ =
      world_.allgatherv(std::span<const CellRegion>(&potential_region_, 1));
}

std::vector<std::vector<double>> MeshConverter::forward_pack(parx::Comm& comm,
                                                             const std::vector<CellRegion>& regions,
                                                             const LocalMesh& local_density) {
  const std::size_t n = params_.n_mesh;
  const auto p = static_cast<std::size_t>(comm.size());
  assert(regions.size() == p);

  // Pack: canonical order is (z, y, x) over the sender's region, routed by
  // the wrapped plane owner.
  std::vector<std::vector<double>> send(p);
  const CellRegion& mine = regions[static_cast<std::size_t>(comm.rank())];
  for (long z = mine.lo[2]; z < mine.hi(2); ++z) {
    const auto f = static_cast<std::size_t>(plane_owner(wrap_cell(z, n)));
    auto& buf = send[f];
    for (long y = mine.lo[1]; y < mine.hi(1); ++y)
      for (long x = mine.lo[0]; x < mine.hi(0); ++x) buf.push_back(local_density.at(x, y, z));
  }
  return send;
}

namespace {

/// The wrapped x cells of `r`, one per unwrapped x: the mesh rows below
/// are then indexed without a division per cell.
std::vector<std::size_t> wrapped_x(const CellRegion& r, std::size_t n) {
  std::vector<std::size_t> gx(r.n[0]);
  for (std::size_t i = 0; i < gx.size(); ++i) gx[i] = wrap_cell(r.lo[0] + static_cast<long>(i), n);
  return gx;
}

}  // namespace

std::vector<double> MeshConverter::forward_unpack(parx::Comm& comm,
                                                  const std::vector<CellRegion>& regions,
                                                  const std::vector<std::vector<double>>& recv) {
  const std::size_t n = params_.n_mesh;
  const int n_fft = params_.n_fft;
  const auto p = static_cast<std::size_t>(comm.size());

  if (comm.rank() >= n_fft) return {};

  // Unpack: replay every sender's canonical order, accumulating the planes
  // this rank owns into its slab.
  const fft::Range zr = fft::split_range(n, n_fft, comm.rank());
  std::vector<double> slab(zr.count * n * n, 0.0);
  for (std::size_t s = 0; s < p; ++s) {
    const auto& buf = recv[s];
    if (buf.empty()) continue;
    const CellRegion& r = regions[s];
    const std::vector<std::size_t> gx = wrapped_x(r, n);
    std::size_t i = 0;
    for (long z = r.lo[2]; z < r.hi(2); ++z) {
      const std::size_t gz = wrap_cell(z, n);
      if (gz < zr.begin || gz >= zr.end()) continue;
      for (long y = r.lo[1]; y < r.hi(1); ++y) {
        double* row = &slab[((gz - zr.begin) * n + wrap_cell(y, n)) * n];
        for (const std::size_t x : gx) row[x] += buf[i++];
      }
    }
    assert(i == buf.size());
  }
  return slab;
}

std::vector<std::vector<double>> MeshConverter::backward_pack(parx::Comm& comm,
                                                              const std::vector<CellRegion>& regions,
                                                              const std::vector<double>& slab_phi) {
  const std::size_t n = params_.n_mesh;
  const int n_fft = params_.n_fft;
  const auto p = static_cast<std::size_t>(comm.size());
  assert(regions.size() == p);

  // Pack (slab holders only): for every destination, walk its potential
  // region and emit the values on planes this holder owns.
  std::vector<std::vector<double>> send(p);
  if (comm.rank() < n_fft) {
    const fft::Range zr = fft::split_range(n, n_fft, comm.rank());
    for (std::size_t d = 0; d < p; ++d) {
      const CellRegion& r = regions[d];
      const std::vector<std::size_t> gx = wrapped_x(r, n);
      auto& buf = send[d];
      for (long z = r.lo[2]; z < r.hi(2); ++z) {
        const std::size_t gz = wrap_cell(z, n);
        if (gz < zr.begin || gz >= zr.end()) continue;
        for (long y = r.lo[1]; y < r.hi(1); ++y) {
          const double* row = &slab_phi[((gz - zr.begin) * n + wrap_cell(y, n)) * n];
          for (const std::size_t x : gx) buf.push_back(row[x]);
        }
      }
    }
  }
  return send;
}

LocalMesh MeshConverter::backward_unpack(parx::Comm& comm,
                                         const std::vector<CellRegion>& regions,
                                         const std::vector<std::vector<double>>& recv) {
  const std::size_t n = params_.n_mesh;
  const int n_fft = params_.n_fft;

  // Assemble: walk my region; each plane's values arrive from its owner in
  // the same canonical order.
  const CellRegion& mine = regions[static_cast<std::size_t>(comm.rank())];
  LocalMesh out(mine);
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n_fft), 0);
  for (long z = mine.lo[2]; z < mine.hi(2); ++z) {
    const auto f = static_cast<std::size_t>(plane_owner(wrap_cell(z, n)));
    const auto& buf = recv[f];
    std::size_t& i = cursor[f];
    for (long y = mine.lo[1]; y < mine.hi(1); ++y)
      for (long x = mine.lo[0]; x < mine.hi(0); ++x) out.at(x, y, z) = buf[i++];
  }
  return out;
}

parx::Comm& MeshConverter::conv_comm() {
  return params_.method == MeshConversion::kDirect ? world_ : comm_smalla2a_;
}

std::vector<CellRegion> MeshConverter::conv_slice(
    const std::vector<CellRegion>& world_regions) const {
  if (params_.method == MeshConversion::kDirect) return world_regions;
  const int gs = group_start(group_of(world_.rank()));
  return {world_regions.begin() + gs, world_regions.begin() + gs + comm_smalla2a_.size()};
}

std::vector<double> MeshConverter::gather_density(const LocalMesh& local_density,
                                                  TimingBreakdown* t) {
  Stopwatch sw;
  const bool direct = params_.method == MeshConversion::kDirect;
  parx::Comm& comm = conv_comm();
  const auto regions = conv_slice(world_density_regions_);
  // Direct: one alltoallv over the world.  Relay, step 1 (paper): an
  // alltoallv inside the group -> partial slabs on the group's first n_fft
  // members.  Traffic is recorded at send time, so the a2a phase probe
  // closes once the sends are posted (see the PhaseProbe note).
  parx::AlltoallvHandle<double> a2a;
  {
    telemetry::Span span(direct ? "pm/direct/forward_a2a" : "pm/relay/forward_a2a");
    PhaseProbe probe(world_, direct ? "direct_forward_a2a" : "relay_forward_a2a");
    a2a = comm.ialltoallv(forward_pack(comm, regions, local_density));
  }
  std::vector<double> slab;
  {
    telemetry::Span span(direct ? "pm/direct/forward_wait" : "pm/relay/forward_wait");
    slab = forward_unpack(comm, regions, comm.wait_alltoallv(a2a));
  }
  if (!direct) {
    // Step 2: reduce the partial slabs across groups onto the root group.
    telemetry::Span span("pm/relay/reduce");
    PhaseProbe probe(world_, "relay_reduce");
    if (comm_smalla2a_.rank() < params_.n_fft) {
      if (comm_reduce_.size() > 1) comm_reduce_.reduce_sum(std::span<double>(slab), 0);
      if (comm_reduce_.rank() != 0) slab = {};
    }
  }
  if (t) t->add("communication", sw.seconds());
  return slab;
}

LocalMesh MeshConverter::scatter_potential(const std::vector<double>& slab_phi,
                                           TimingBreakdown* t) {
  Stopwatch sw;
  const bool direct = params_.method == MeshConversion::kDirect;
  parx::Comm& comm = conv_comm();
  const auto regions = conv_slice(world_potential_regions_);
  // Relay, step 4 (paper): bcast the slab potential across groups...
  std::vector<double> relayed;
  if (!direct) {
    relayed = slab_phi;
    telemetry::Span span("pm/relay/bcast");
    PhaseProbe probe(world_, "relay_bcast");
    if (comm_smalla2a_.rank() < params_.n_fft && comm_reduce_.size() > 1)
      comm_reduce_.bcast(relayed, 0);
  }
  // ...step 5: alltoallv inside the group (direct: over the world) to each
  // member's local mesh.
  parx::AlltoallvHandle<double> a2a;
  {
    telemetry::Span span(direct ? "pm/direct/backward_a2a" : "pm/relay/backward_a2a");
    PhaseProbe probe(world_, direct ? "direct_backward_a2a" : "relay_backward_a2a");
    a2a = comm.ialltoallv(backward_pack(comm, regions, direct ? slab_phi : relayed));
  }
  LocalMesh out;
  {
    telemetry::Span span(direct ? "pm/direct/backward_wait" : "pm/relay/backward_wait");
    out = backward_unpack(comm, regions, comm.wait_alltoallv(a2a));
  }
  if (t) t->add("communication", sw.seconds());
  return out;
}

}  // namespace greem::pm
