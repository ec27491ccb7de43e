#include "core/parallel_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "domain/exchange.hpp"
#include "parx/fault.hpp"
#include "pp/kernels.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/live_endpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "tree/ghost.hpp"
#include "tree/octree.hpp"
#include "util/hash.hpp"
#include "util/parallel_for.hpp"
#include "util/task_pool.hpp"

namespace greem::core {

ParallelSimulation::ParallelSimulation(parx::Comm& world, ParallelSimConfig config,
                                       std::vector<Particle> local, double t_start)
    : world_(world),
      config_(config),
      pm_(world, config.pm),
      particles_(std::move(local)),
      clock_(t_start) {
  if (config_.dims[0] * config_.dims[1] * config_.dims[2] != world.size())
    throw std::invalid_argument("ParallelSimulation: dims product != comm size");
  if (config_.pool_threads > 0) set_num_threads(config_.pool_threads);
  parx::set_fault_context(0, parx::FaultPhase::kAny);
  if (!config_.restore_from.empty()) {
    // Resolve either a checkpoint directory itself or a parent dir.
    std::string path = config_.restore_from;
    if (!ckpt::read_manifest(path)) {
      auto latest = ckpt::find_latest(path);
      if (!latest)
        throw ckpt::CkptError("restore_from: no committed checkpoint under " + path);
      path = *latest;
    }
    particles_.clear();
    restore_checkpoint(path);
    return;
  }
  decomp_ = domain::Decomposition::uniform(config_.dims);
  // Initial decomposition + forces: one DD cycle, then the combined PP+PM
  // cycle seeds both cached accelerations (acc_s for the substep kicks,
  // acc_l for the first step's long-range kick) at the initial positions.
  domain_cycle(substep_counter_++);
  combined_force_cycle(0);
  parx::set_fault_context(0, parx::FaultPhase::kAny);
  sentinel_baseline();
}

namespace {

/// Local sentinel tallies: [count, non-finite fields, mass, Px, Py, Pz].
std::array<double, 6> sentinel_tally(std::span<const Particle> ps) {
  std::array<double, 6> v{};
  v[0] = static_cast<double>(ps.size());
  for (const auto& p : ps) {
    int bad = 0;
    for (std::size_t a = 0; a < 3; ++a) {
      if (!std::isfinite(p.pos[a])) ++bad;
      if (!std::isfinite(p.mom[a])) ++bad;
    }
    if (!std::isfinite(p.mass)) ++bad;
    if (bad > 0) {
      v[1] += bad;
      continue;  // keep NaN out of the mass/momentum sums
    }
    v[2] += p.mass;
    for (std::size_t a = 0; a < 3; ++a) v[3 + a] += p.mass * p.mom[a];
  }
  return v;
}

}  // namespace

void ParallelSimulation::sentinel_baseline() {
  if (config_.sentinel.every <= 0) return;
  auto v = sentinel_tally(particles_);
  world_.allreduce_sum(std::span<double>(v.data(), v.size()));
  sentinel_count0_ = v[0];
  sentinel_mass0_ = v[2];
  sentinel_prev_mom_ = {v[3], v[4], v[5]};
}

void ParallelSimulation::sentinel_check() {
  telemetry::Span span("sim/sentinel");
  telemetry::Registry::global().counter("sentinel/checks").add();
  auto v = sentinel_tally(particles_);
  world_.allreduce_sum(std::span<double>(v.data(), v.size()));

  // Every rank compares the same reduced values, so either all ranks pass
  // or all throw the identical SentinelError: the violation is collective
  // and the recovery rendezvous cannot deadlock on it.
  std::ostringstream why;
  if (v[1] != 0) {
    why << "sentinel: " << v[1] << " non-finite particle field(s)";
  } else if (v[0] != sentinel_count0_) {
    why << "sentinel: global particle count " << static_cast<std::uint64_t>(v[0])
        << " != baseline " << static_cast<std::uint64_t>(sentinel_count0_);
  } else if (std::abs(v[2] - sentinel_mass0_) >
             config_.sentinel.max_mass_drift * std::abs(sentinel_mass0_)) {
    why << "sentinel: total mass drifted to " << v[2] << " from " << sentinel_mass0_;
  } else {
    for (std::size_t a = 0; a < 3; ++a) {
      if (std::abs(v[3 + a] - sentinel_prev_mom_[a]) > config_.sentinel.max_momentum_drift) {
        why << "sentinel: momentum component " << a << " drifted by "
            << v[3 + a] - sentinel_prev_mom_[a] << " in one check interval";
        break;
      }
    }
  }
  if (!why.str().empty()) {
    telemetry::Registry::global().counter("sentinel/violations").add();
    // Post-mortem hooks before the (collective, identical-on-every-rank)
    // throw: mark the trip in the flight recorder, dump the recent event
    // history once, and tell any live-endpoint subscribers why.
    telemetry::flight_record_mark("sentinel/violation",
                                  static_cast<std::int64_t>(step_counter_));
    if (world_.rank() == 0) {
      telemetry::dump_flight_recorder();
      telemetry::LiveEndpoint::global().publish_event("sentinel", why.str());
    }
    throw SentinelError(why.str() + " at step " + std::to_string(step_counter_));
  }
  sentinel_prev_mom_ = {v[3], v[4], v[5]};
}

void ParallelSimulation::domain_cycle(std::uint64_t substep_id) {
  telemetry::Span span("sim/domain_cycle");
  std::optional<parx::TrafficLedger::Epoch> ep;
  if (reporting() && world_.rank() == 0) ep.emplace(world_.ledger().begin_phase("dd"));
  Stopwatch sw;
  auto pos = positions_of(particles_);
  // Per-particle weights from the interaction counts the PP cycles since
  // the previous decomposition scattered onto lb_w, which start summing
  // afresh here.  Before the first cycle every lb_w is 0 and the sampling
  // degenerates to uniform density (the same collective sequence).
  std::vector<double> w(particles_.size());
  for (std::size_t i = 0; i < particles_.size(); ++i)
    w[i] = std::exchange(particles_[i].lb_w, 0.0);
  const domain::Decomposition fresh = domain::sample_and_decompose_weighted(
      world_, config_.dims, pos, w, config_.sampling, substep_id);
  decomp_ = smoother_.smooth(fresh);
  report_.dd.add("sampling method", sw.seconds());

  sw.restart();
  const auto dest = domain::destinations(decomp_, pos);
  particles_ = domain::exchange_by_rank<Particle>(world_, particles_, dest);
  report_.dd.add("particle exchange", sw.seconds());
  if (ep) report_.traffic_dd += ep->delta();
}

void ParallelSimulation::pp_force_cycle() {
  telemetry::Span span("sim/pp_cycle");
  std::optional<parx::TrafficLedger::Epoch> ep;
  if (reporting() && world_.rank() == 0) ep.emplace(world_.ledger().begin_phase("pp"));
  const double rcut = config_.rcut();
  Stopwatch sw;

  // "local tree": select the boundary particles every neighbor needs.
  auto pos = positions_of(particles_);
  auto mass = masses_of(particles_);
  const auto domains = decomp_.boxes();
  auto exports = tree::select_ghosts(pos, mass, domains, world_.rank(), rcut);
  report_.pp.add("local tree", sw.seconds());

  // "communication": the ghost exchange.  Each rank's payloads drain in
  // arrival order but land in their source rank's slot, so arrival order
  // never changes the result.
  sw.restart();
  auto gpos = world_.alltoallv(std::move(exports.pos));
  auto gmass = world_.alltoallv(std::move(exports.mass));
  std::size_t n_ghost = 0;
  for (const auto& v : gpos) n_ghost += v.size();
  report_.n_ghost_imported += n_ghost;
  report_.pp.add("communication", sw.seconds());

  // "tree construction": octree over locals followed by ghosts in source
  // rank order.
  sw.restart();
  const std::size_t n_local = particles_.size();
  pos.reserve(n_local + n_ghost);
  mass.reserve(n_local + n_ghost);
  for (std::size_t r = 0; r < gpos.size(); ++r) {
    pos.insert(pos.end(), gpos[r].begin(), gpos[r].end());
    mass.insert(mass.end(), gmass[r].begin(), gmass[r].end());
  }
  tree::Octree octree(pos, mass, {config_.leaf_capacity, 21});
  report_.pp.add("tree construction", sw.seconds());
  report_.n_tree_particles += pos.size();

  // "tree traversal" + "force calculation": groups walk, kernel.
  tree::TraversalParams tp;
  tp.theta = config_.theta;
  tp.rcut = config_.rcut();
  tp.ncrit = config_.ncrit;
  tp.eps2 = config_.eps * config_.eps;
  tp.kernel = config_.kernel;

  std::vector<Vec3> acc(n_local, Vec3{});
  tree::TraversalTimes times;
  auto stats = tree::tree_accelerations_targets(octree, tp, n_local, acc, {}, &times,
                                                &report_.pp_group_costs);
  report_.pp.add("tree traversal", times.traverse_s);
  report_.pp.add("force calculation", times.force_s);
  report_.pp_stats.merge(stats);

  // Scatter each group's interaction count onto its local members: each
  // local particle adds its share to the sampling weight of the next
  // domain decomposition.
  for (const auto& gc : report_.pp_group_costs) {
    const double w = static_cast<double>(gc.interactions) / static_cast<double>(gc.ni);
    const tree::TreeNode node = octree.node(gc.node);
    for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
      const std::uint32_t orig = octree.original_index(i);
      if (orig < n_local) particles_[orig].lb_w += w;
    }
  }

  for (std::size_t i = 0; i < n_local; ++i) particles_[i].acc_s = acc[i];
  if (ep) report_.traffic_pp += ep->delta();
}

void ParallelSimulation::combined_force_cycle(std::uint64_t fault_step) {
  telemetry::Span span("sim/force_cycle");
  auto pos = positions_of(particles_);
  auto mass = masses_of(particles_);

  // Announce the PM regions (a collective, like the exchange itself) from
  // the box that covers the drifted positions: the drift since the
  // exchange can carry fast particles beyond the 2-cell pad around the
  // domain box, which would run the density stencil off the local mesh.
  // In a healthy step the union equals the domain box.
  {
    Box pm_box = decomp_.box_of(world_.rank());
    for (const Vec3& q : pos) {
      for (std::size_t a = 0; a < 3; ++a) {
        pm_box.lo[a] = std::min(pm_box.lo[a], q[a]);
        pm_box.hi[a] = std::max(pm_box.hi[a], q[a]);
      }
    }
    pm_.update_domain(pm_box);
  }

  parx::set_fault_context(fault_step, parx::FaultPhase::kPP);
  pp_force_cycle();

  parx::set_fault_context(fault_step, parx::FaultPhase::kPM);
  telemetry::Span pm_span("sim/pm_cycle");
  std::optional<parx::TrafficLedger::Epoch> ep;
  if (reporting() && world_.rank() == 0) ep.emplace(world_.ledger().begin_phase("pm"));
  std::vector<Vec3> accl(particles_.size(), Vec3{});
  pm_.accelerations(pos, mass, accl, &report_.pm);
  for (std::size_t i = 0; i < particles_.size(); ++i) particles_[i].acc_l = accl[i];
  if (ep) report_.traffic_pm += ep->delta();
}

void ParallelSimulation::step(double t_next) {
  telemetry::Span span("sim/step");
  const double t0 = clock_;
  const double t1 = t_next;
  const TimeMetric& m = config_.metric;
  report_ = StepReport{};

  // Fault-injection addressing: this is step `step_counter_ + 1`, and each
  // phase below announces itself so a FaultSpec can target it.
  const std::uint64_t fault_step = step_counter_ + 1;

  // The step's one domain decomposition (the paper's step is one PM cycle,
  // two PP cycles and a decomposition).  Every PP cycle of the step keeps
  // its ownership.  Ghosts are selected from each particle's current
  // position, so a target that drifted a distance delta off its box misses
  // only sources within delta of its cutoff radius, where the cutoff force
  // has all but vanished.
  parx::set_fault_context(fault_step, parx::FaultPhase::kDD);
  domain_cycle(substep_counter_++);

  // Long-range kick: closing half of the previous step + opening half of
  // this one, from the cached PM acceleration (evaluated by the previous
  // step's pipelined PM cycle at these same positions -- acc_l rode
  // through the exchange with the particle).
  const double k_long = pending_long_kick_ + 0.5 * m.kick(t0, t1);
  for (auto& p : particles_) p.mom += p.acc_l * k_long;
  pending_long_kick_ = 0.5 * m.kick(t0, t1);

  const int nsub = config_.nsub;
  for (int s = 0; s < nsub; ++s) {
    const double ts0 = t0 + (t1 - t0) * static_cast<double>(s) / nsub;
    const double ts1 = t0 + (t1 - t0) * static_cast<double>(s + 1) / nsub;
    const double tsm = 0.5 * (ts0 + ts1);

    const double k_open = m.kick(ts0, tsm);
    for (auto& p : particles_) p.mom += p.acc_s * k_open;

    Stopwatch sw;
    const double d = m.drift(ts0, ts1);
    for (auto& p : particles_) p.pos = wrap01(p.pos + p.mom * d);
    report_.dd.add("position update", sw.seconds());

    if (s + 1 == nsub) {
      // Final substep: the PP cycle plus the pipelined PM cycle for the
      // next step's long kick.
      combined_force_cycle(fault_step);
    } else {
      parx::set_fault_context(fault_step, parx::FaultPhase::kPP);
      pp_force_cycle();
    }

    const double k_close = m.kick(tsm, ts1);
    for (auto& p : particles_) p.mom += p.acc_s * k_close;
  }

  clock_ = t1;
  ++step_counter_;
  parx::set_fault_context(fault_step, parx::FaultPhase::kAny);
  if (config_.sentinel.every > 0 &&
      step_counter_ % static_cast<std::uint64_t>(config_.sentinel.every) == 0)
    sentinel_check();
  if (reporting()) write_step_record();
}

void ParallelSimulation::checkpoint(const std::string& dir, std::size_t keep_last) {
  parx::set_fault_context(step_counter_, parx::FaultPhase::kCkpt);
  ckpt::GlobalState gs;
  gs.step = step_counter_;
  gs.substep = substep_counter_;
  gs.clock = clock_;
  gs.pending_long_kick = pending_long_kick_;
  gs.config_fingerprint = config_fingerprint(config_);
  gs.dims = config_.dims;
  gs.decomp_flat = decomp_.flatten();
  gs.smoother_history = smoother_.history();

  ckpt::RankShard shard;
  shard.payload = std::as_bytes(std::span<const Particle>(particles_));
  shard.n_items = particles_.size();
  ckpt::write_checkpoint(world_, dir, gs, shard, keep_last);
  parx::set_fault_context(step_counter_, parx::FaultPhase::kAny);
}

void ParallelSimulation::restore_checkpoint(const std::string& ckpt_path) {
  // A restore must never be the target of an injected fault: it is the
  // recovery path, and re-faulting it would make rollback livelock.
  parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
  ckpt::Restored r = ckpt::read_checkpoint(world_, ckpt_path);

  const auto& gs = r.manifest.state;
  if (gs.config_fingerprint != config_fingerprint(config_))
    throw ckpt::CkptError(
        "restore: checkpoint config fingerprint does not match this simulation");
  if (gs.dims != config_.dims)
    throw ckpt::CkptError("restore: checkpoint rank grid differs from config dims");
  if (r.payload.size() != r.n_items * sizeof(Particle))
    throw ckpt::CkptError("restore: shard payload size is not a whole particle count");

  particles_.resize(r.n_items);
  std::memcpy(particles_.data(), r.payload.data(), r.payload.size());
  clock_ = gs.clock;
  pending_long_kick_ = gs.pending_long_kick;
  substep_counter_ = gs.substep;
  step_counter_ = gs.step;
  decomp_ = domain::Decomposition::unflatten(gs.dims, gs.decomp_flat);
  smoother_.set_history(gs.smoother_history);
  report_ = StepReport{};
  sentinel_baseline();
  parx::set_fault_context(step_counter_, parx::FaultPhase::kAny);
}

void ParallelSimulation::write_step_record() {
  telemetry::Span span("sim/step_report");
  telemetry::StepRecord rec;
  rec.job = config_.job_label;
  rec.step = step_counter_;
  rec.t = clock_;
  rec.ranks = world_.size();
  rec.nsub = config_.nsub;
  rec.n_particles = world_.allreduce_sum(static_cast<std::uint64_t>(particles_.size()));

  // Phase times follow the paper's convention: the slowest rank sets the
  // step time, so report the phase-wise max.
  rec.pm = allreduce_max(world_, report_.pm);
  rec.pp = allreduce_max(world_, report_.pp);
  rec.dd = allreduce_max(world_, report_.dd);

  const double pp_local =
      report_.pp.get("tree traversal") + report_.pp.get("force calculation");
  rec.pp_seconds_max = world_.allreduce_max(pp_local);
  rec.pp_seconds_mean =
      world_.allreduce_sum(pp_local) / static_cast<double>(world_.size());

  const tree::TraversalStats gstats = allreduce_sum(world_, report_.pp_stats);
  rec.interactions = gstats.interactions;
  rec.pairs_evaluated = gstats.pairs_evaluated;
  rec.flops = static_cast<double>(rec.interactions) * pp::kFlopsPerInteraction;
  rec.flop_rate = rec.pp_seconds_max > 0 ? rec.flops / rec.pp_seconds_max : 0;
  rec.nodes_visited = gstats.nodes_visited;
  const double walk_s = world_.allreduce_sum(report_.pp.get("tree traversal"));
  rec.walk_mnodes_s = walk_s > 0 ? static_cast<double>(rec.nodes_visited) / walk_s / 1e6 : 0;
  const double build_s = world_.allreduce_sum(report_.pp.get("tree construction"));
  const std::uint64_t tree_particles =
      world_.allreduce_sum(static_cast<std::uint64_t>(report_.n_tree_particles));
  rec.tree_build_mpart_s =
      build_s > 0 ? static_cast<double>(tree_particles) / build_s / 1e6 : 0;
  rec.groups = gstats.ngroups;
  rec.mean_ni = gstats.mean_ni();
  rec.mean_nj = gstats.mean_nj();
  const std::uint64_t max_interactions = world_.allreduce_max(report_.pp_stats.interactions);
  rec.work_imbalance =
      rec.interactions > 0 ? static_cast<double>(max_interactions) * world_.size() /
                                 static_cast<double>(rec.interactions)
                           : 0;
  rec.ghosts_imported =
      world_.allreduce_sum(static_cast<std::uint64_t>(report_.n_ghost_imported));

  // Pool activity since the previous report (the pool is process-wide and
  // shared by every rank thread, so the counts are process totals).
  const TaskPool::PoolStats ps = TaskPool::global().stats();
  rec.pool_loops = ps.loops - pool_prev_loops_;
  rec.pool_chunks = ps.chunks - pool_prev_chunks_;
  rec.pool_steals = ps.steals - pool_prev_steals_;
  rec.pool_imbalance = ps.imbalance();
  pool_prev_loops_ = ps.loops;
  pool_prev_chunks_ = ps.chunks;
  pool_prev_steals_ = ps.steals;

  // Transport activity since the previous report (process-wide counters,
  // all zero on the perfect-link fast path).
  auto& reg = telemetry::Registry::global();
  const std::uint64_t retx = reg.counter("parx/retransmits").value();
  const std::uint64_t drops = reg.counter("parx/drops_injected").value();
  const std::uint64_t corrupt = reg.counter("parx/corrupt_detected").value();
  rec.retransmits = retx - tp_prev_retransmits_;
  rec.transport_drops = drops - tp_prev_drops_;
  rec.corrupt_detected = corrupt - tp_prev_corrupt_;
  tp_prev_retransmits_ = retx;
  tp_prev_drops_ = drops;
  tp_prev_corrupt_ = corrupt;

  // Per-group PP cost attribution, folded to one summary row per rank:
  // each rank contributes its slot of a zero-elsewhere table and the sum
  // reduction is an allgather.  The per-group detail stays rank-local in
  // report_.pp_group_costs (load-balance input); the record carries the
  // cross-rank view.
  if (!report_.pp_group_costs.empty()) {
    constexpr std::size_t kCols = 6;
    std::vector<double> table(static_cast<std::size_t>(world_.size()) * kCols, 0.0);
    double* row = table.data() + static_cast<std::size_t>(world_.rank()) * kCols;
    double max_group_s = 0;
    for (const auto& gc : report_.pp_group_costs) {
      row[0] += 1;
      row[1] += static_cast<double>(gc.interactions);
      row[2] += static_cast<double>(gc.ghost_sources);
      row[3] += gc.walk_s;
      row[4] += gc.force_s;
      max_group_s = std::max(max_group_s, gc.walk_s + gc.force_s);
    }
    row[5] = max_group_s;
    world_.allreduce_sum(std::span<double>(table));
    rec.pp_groups.resize(world_.size());
    for (int r = 0; r < world_.size(); ++r) {
      const double* src = table.data() + static_cast<std::size_t>(r) * kCols;
      auto& g = rec.pp_groups[r];
      g.groups = static_cast<std::uint64_t>(src[0]);
      g.interactions = static_cast<std::uint64_t>(src[1]);
      g.ghost_sources = static_cast<std::uint64_t>(src[2]);
      g.walk_s = src[3];
      g.force_s = src[4];
      g.max_group_s = src[5];
    }
  }

  if (world_.rank() == 0) {
    auto phase = [&](const char* name, const parx::TrafficCounts& c) {
      if (c.world_size() == 0) return;
      const parx::TrafficTotals tot = c.totals();
      rec.traffic.push_back({name, tot.messages, tot.bytes, c.model_time()});
    };
    phase("dd", report_.traffic_dd);
    phase("pp", report_.traffic_pp);
    phase("pm", report_.traffic_pm);
    // Render the line once, append + flush it atomically (optionally
    // fsynced), and mirror it to any live-endpoint subscribers.
    std::ostringstream line;
    telemetry::write_jsonl(line, rec);
    telemetry::append_jsonl_line(config_.step_report_path, line.view(),
                                 config_.step_report_fsync);
    auto& live = telemetry::LiveEndpoint::global();
    if (live.running()) {
      std::string_view lv = line.view();
      while (!lv.empty() && (lv.back() == '\n' || lv.back() == '\r')) lv.remove_suffix(1);
      if (config_.job_label.empty())
        live.publish(lv);
      else
        live.publish_topic(config_.job_label, lv);
    }
  }
  record_ = std::move(rec);
}

void ParallelSimulation::synchronize() {
  if (pending_long_kick_ == 0) return;
  // acc_l was evaluated at the current positions by the last step's
  // pipelined PM cycle, so the closing half-kick needs no recompute.
  for (auto& p : particles_) p.mom += p.acc_l * pending_long_kick_;
  pending_long_kick_ = 0;
}

std::uint64_t config_fingerprint(const ParallelSimConfig& config) {
  util::Fnv1a64 h;
  h.mix(config.dims[0]).mix(config.dims[1]).mix(config.dims[2]);
  h.mix(config.nsub);
  h.mix(config.theta).mix(config.ncrit).mix(config.leaf_capacity).mix(config.eps);
  h.mix(static_cast<int>(config.kernel));
  h.mix(config.sampling.target_samples).mix(config.sampling.seed);
  h.mix(config.metric.comoving);
  h.mix(config.metric.cosmology.omega_m)
      .mix(config.metric.cosmology.omega_l)
      .mix(config.metric.cosmology.H0);
  const auto& pm = config.pm;
  h.mix(pm.n_mesh).mix(pm.rcut).mix(static_cast<int>(pm.scheme));
  h.mix(pm.deconv_power).mix(pm.G).mix(static_cast<int>(pm.green));
  h.mix(pm.conversion.n_mesh).mix(pm.conversion.n_fft);
  h.mix(static_cast<int>(pm.conversion.method)).mix(pm.conversion.n_groups);
  return h.value();
}

TimingBreakdown allreduce_max(parx::Comm& comm, const TimingBreakdown& local) {
  std::vector<double> vals;
  vals.reserve(local.entries().size());
  for (const auto& [k, v] : local.entries()) vals.push_back(v);
  comm.allreduce(std::span<double>(vals), [](double a, double b) { return a > b ? a : b; });
  TimingBreakdown out;
  std::size_t i = 0;
  for (const auto& [k, v] : local.entries()) out.add(k, vals[i++]);
  return out;
}

tree::TraversalStats allreduce_sum(parx::Comm& comm, const tree::TraversalStats& local) {
  std::uint64_t vals[7] = {local.ngroups,       local.sum_ni,          local.sum_nj,
                           local.interactions,  local.nodes_visited,   local.ghost_sources,
                           local.pairs_evaluated};
  comm.allreduce_sum(std::span<std::uint64_t>(vals, 7));
  tree::TraversalStats out;
  out.ngroups = vals[0];
  out.sum_ni = vals[1];
  out.sum_nj = vals[2];
  out.interactions = vals[3];
  out.nodes_visited = vals[4];
  out.ghost_sources = vals[5];
  out.pairs_evaluated = vals[6];
  return out;
}

}  // namespace greem::core
