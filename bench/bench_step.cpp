// End-to-end telemetry smoke of the distributed TreePM step: runs a small
// ParallelSimulation for a few steps with step reporting on and emits the
// full observability artifact set --
//
//   BENCH_step.jsonl      one StepRecord JSON line per step (Table I phase
//                         times as max over ranks, achieved flop rate from
//                         the 51 flops/interaction accounting, pool and
//                         traffic statistics),
//   BENCH_step.json       the RunMeta envelope plus a summary of the last
//                         step, checkpoint overhead, and the
//                         metrics-registry counters,
//   BENCH_flight_trace.json  the run's Chrome trace: spans, transport frame
//                         events and cross-rank flow arrows from the
//                         flight-recorder rings (load in chrome://tracing
//                         or https://ui.perfetto.dev; --flight-dump).
//
// This is the artifact CI uploads; it doubles as the quickest way to eyeball
// where a step spends its time, and as the kill-and-restart harness: with
// --checkpoint-every / --restore-from / --fault-at the same binary writes
// checkpoints, resumes from them, and survives injected rank faults, and
// --final-state makes runs comparable byte-for-byte (cost weighting is by
// interaction count here, so a restart reproduces the original run bitwise).
//
// Flags:
//   --steps N             total steps (default 2)
//   --particles N         particle count (default 8192)
//   --checkpoint-every N  checkpoint every N steps (default 0 = never)
//   --ckpt-dir DIR        checkpoint directory (default BENCH_ckpt)
//   --keep-last K         checkpoint retention (default 2, 0 = keep all)
//   --fault-at SPEC       inject a fault (repeatable; specs accumulate into
//                         one plan), SPEC = STEP:PHASE[:RANK[:KIND]] with
//                         "*" wildcards for STEP/RANK, PHASE in
//                         {any,dd,pm,pp,ckpt}, KIND a fail-stop kind
//                         {abort,send,collective,hang} or a link kind
//                         {drop,corrupt,dup,reorder,lose} with optional
//                         "@RATE" / "xN" (e.g. 3:pp:2, "*:any:*:drop@0.01")
//   --watchdog SEC        arm the hang watchdog with this quiescence window
//   --watchdog-dump FILE  watchdog also writes its state dump here
//   --flight-dump FILE    Chrome trace path (default
//                         BENCH_flight_trace.json, "" disables) --
//                         written at end of run, or by the watchdog /
//                         sentinel / fault-recovery hooks the moment they
//                         fire (docs/observability.md)
//   --live-port N         start the live introspection endpoint on
//                         127.0.0.1:N (0 = ephemeral port; default off)
//   --restore-from PATH   resume from a checkpoint dir (or its parent)
//   --final-state FILE    rank 0 writes the final particles (sorted by id)
//                         as a snapshot for byte-wise comparison
//   --large-n LIST        comma-separated particle counts (e.g.
//                         "1000000,10000000"); for each N, run a short
//                         no-plan / rate-0-plan / load-balance probe
//                         sweep and emit a "large_n_sweep" entry (the CI
//                         perf gate reads these)
//
// BENCH_step.json gains a "transport" section with the reliable-transport
// and sentinel counters plus a perfect-link overhead microbench (raw
// zero-copy path vs the framed transport at rate 0).  All overhead probes
// report the median of 5 runs after one discarded warmup
// (docs/transport-fastpath.md).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>

#include "ckpt/recovery.hpp"
#include "core/parallel_sim.hpp"
#include "io/snapshot.hpp"
#include "parx/fault.hpp"
#include "parx/runtime.hpp"
#include "pp/kernels.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/live_endpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/task_pool.hpp"
#include "util/timer.hpp"

using namespace greem;

namespace {

struct Options {
  int steps = 2;
  std::size_t particles = 8192;
  std::uint64_t checkpoint_every = 0;
  std::string ckpt_dir = "BENCH_ckpt";
  std::size_t keep_last = 2;
  std::vector<parx::FaultSpec> faults;
  double watchdog_s = 0;
  std::string watchdog_dump;
  std::string flight_dump = "BENCH_flight_trace.json";
  int live_port = -1;  ///< -1 = endpoint off, 0 = ephemeral
  std::string restore_from;
  std::string final_state;
  std::vector<std::size_t> large_n;
};

bool parse_args(int argc, char** argv, Options& opt) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(a, "--steps") && (v = need(i))) {
      opt.steps = std::atoi(v);
    } else if (!std::strcmp(a, "--particles") && (v = need(i))) {
      opt.particles = static_cast<std::size_t>(std::atoll(v));
    } else if (!std::strcmp(a, "--checkpoint-every") && (v = need(i))) {
      opt.checkpoint_every = static_cast<std::uint64_t>(std::atoll(v));
    } else if (!std::strcmp(a, "--ckpt-dir") && (v = need(i))) {
      opt.ckpt_dir = v;
    } else if (!std::strcmp(a, "--keep-last") && (v = need(i))) {
      opt.keep_last = static_cast<std::size_t>(std::atoll(v));
    } else if (!std::strcmp(a, "--fault-at") && (v = need(i))) {
      auto spec = parx::parse_fault_at(v);
      if (!spec) {
        std::fprintf(stderr, "bad --fault-at spec '%s'\n", v);
        return false;
      }
      opt.faults.push_back(*spec);
    } else if (!std::strcmp(a, "--watchdog") && (v = need(i))) {
      opt.watchdog_s = std::atof(v);
    } else if (!std::strcmp(a, "--watchdog-dump") && (v = need(i))) {
      opt.watchdog_dump = v;
    } else if (!std::strcmp(a, "--flight-dump") && (v = need(i))) {
      opt.flight_dump = v;
    } else if (!std::strcmp(a, "--live-port") && (v = need(i))) {
      opt.live_port = std::atoi(v);
    } else if (!std::strcmp(a, "--restore-from") && (v = need(i))) {
      opt.restore_from = v;
    } else if (!std::strcmp(a, "--final-state") && (v = need(i))) {
      opt.final_state = v;
    } else if (!std::strcmp(a, "--large-n") && (v = need(i))) {
      for (const char* p = v; *p;) {
        char* end = nullptr;
        const long long n = std::strtoll(p, &end, 10);
        if (end == p || n <= 0) {
          std::fprintf(stderr, "bad --large-n list '%s'\n", v);
          return false;
        }
        opt.large_n.push_back(static_cast<std::size_t>(n));
        p = *end == ',' ? end + 1 : end;
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete flag '%s'\n", a);
      return false;
    }
  }
  return opt.steps > 0;
}

/// The process-wide transport counters the probes' CI gates read: unlike
/// their wall-time ratios, these are exact on any host.  A rate-0 plan
/// must frame every logical message and fire nothing; no plan must frame
/// none.
struct TransportCounts {
  std::uint64_t messages = 0;  ///< logical messages (the runtimes' ledgers)
  std::uint64_t frames_sent = 0, retransmits = 0, drops_injected = 0, corrupt_detected = 0;

  /// The global counters now (`messages` comes from the runtimes).
  static TransportCounts now() {
    auto& reg = telemetry::Registry::global();
    return {0, reg.counter("parx/frames_sent").value(), reg.counter("parx/retransmits").value(),
            reg.counter("parx/drops_injected").value(),
            reg.counter("parx/corrupt_detected").value()};
  }

  /// The counters' growth since `before`, over an interval that sent
  /// `logical` messages.
  TransportCounts since(const TransportCounts& before, std::uint64_t logical) const {
    return {logical, frames_sent - before.frames_sent, retransmits - before.retransmits,
            drops_injected - before.drops_injected, corrupt_detected - before.corrupt_detected};
  }
};

void write_counts(telemetry::JsonWriter& jw, const std::string& prefix, const TransportCounts& c) {
  jw.field(prefix + "messages", c.messages);
  jw.field(prefix + "frames_sent", c.frames_sent);
  jw.field(prefix + "retransmits", c.retransmits);
  jw.field(prefix + "drops_injected", c.drops_injected);
  jw.field(prefix + "corrupt_detected", c.corrupt_detected);
}

/// Wall seconds of `rounds` alltoallv rounds on a fresh 8-rank runtime
/// with the given fault plan -- the perfect-link overhead probe: an empty
/// plan exercises the raw mailbox path, a rate-0 link plan the full
/// framed/CRC'd/acked transport with no fault ever firing.  Adds the
/// run's logical messages to `*messages` when given.
double alltoallv_rounds_seconds(int rounds, const parx::FaultPlan& plan,
                                std::uint64_t* messages = nullptr) {
  parx::Runtime rt(8);
  if (!plan.empty()) rt.set_fault_plan(plan);
  Stopwatch sw;
  rt.run([&](parx::Comm& world) {
    parx::set_fault_context(1, parx::FaultPhase::kPP);
    const int p = world.size();
    std::vector<std::vector<double>> payload(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j)
      if (j != world.rank())
        payload[static_cast<std::size_t>(j)].assign(64, world.rank() + 0.5 * j);
    for (int r = 0; r < rounds; ++r) (void)world.alltoallv(payload);
    parx::set_fault_context(parx::kNoFaultStep, parx::FaultPhase::kAny);
  });
  const double seconds = sw.seconds();
  if (messages) *messages += rt.ledger().totals().messages;
  return seconds;
}

/// Wall seconds of `nsteps` real simulation steps (stopwatch starts after
/// construction, so domain bootstrap is excluded) on a fresh runtime --
/// the step-time overhead probe behind the "<2% with no fault plan"
/// acceptance number.  `rate0` additionally installs a rate-0 link plan,
/// routing every message through the fully-armed framed transport.  Adds
/// the run's logical messages (set-up included) to `*messages` when given.
double sim_steps_seconds(const core::ParallelSimConfig& cfg,
                         const std::vector<core::Particle>& particles, int nranks,
                         int nsteps, double dt, bool rate0,
                         std::uint64_t* messages = nullptr) {
  parx::Runtime rt(nranks);
  if (rate0) {
    parx::FaultSpec idle;
    idle.step = parx::kEveryStep;
    idle.rank = parx::kEveryRank;
    idle.kind = parx::FaultKind::kLinkDrop;
    idle.rate = 0.0;
    idle.times = parx::kUnlimited;
    rt.set_fault_plan(parx::FaultPlan().at(idle));
  }
  auto probe_cfg = cfg;
  probe_cfg.step_report_path.clear();  // don't mix probe steps into the JSONL
  probe_cfg.restore_from.clear();
  std::mutex mu;
  double seconds = 0;
  rt.run([&](parx::Comm& world) {
    std::vector<core::Particle> local =
        world.rank() == 0 ? particles : std::vector<core::Particle>{};
    core::ParallelSimulation sim(world, probe_cfg, std::move(local), 0.0);
    world.barrier();
    Stopwatch sw;
    for (int s = 1; s <= nsteps; ++s) sim.step(s * dt);
    world.barrier();
    if (world.rank() == 0) {
      std::lock_guard lock(mu);
      seconds = sw.seconds();
    }
  });
  if (messages) *messages += rt.ledger().totals().messages;
  return seconds;
}

/// One probe run of `nsteps` steps: the PP load imbalance (max/mean over
/// ranks of the last step's traversal+force seconds), its deterministic
/// counterpart (max/mean over ranks of the last step's interactions, the
/// StepRecord's work_imbalance) and the task-pool busy imbalance (max/mean
/// per-slot busy time over the probe's steps).  Works without telemetry --
/// the timing breakdowns and traversal stats are plain StepReport data.
struct StepProbe {
  double pp_imbalance = 0;
  double work_imbalance = 0;
  double pool_imbalance = 0;
};

/// Median of 5 samples after one discarded warmup run: probes report a
/// robust central value instead of a lucky best-of-N (the warmup pays
/// cold caches, page faults and thread spin-up once, off the record).
template <class F>
double median5_seconds(F&& run) {
  (void)run();
  std::array<double, 5> s;
  for (auto& v : s) v = run();
  std::sort(s.begin(), s.end());
  return s[2];
}

StepProbe steps_probe(const core::ParallelSimConfig& cfg,
                      const std::vector<core::Particle>& particles, int nranks, int nsteps,
                      double dt) {
  parx::Runtime rt(nranks);
  auto probe_cfg = cfg;
  probe_cfg.step_report_path.clear();
  probe_cfg.restore_from.clear();
  std::mutex mu;
  StepProbe out;
  rt.run([&](parx::Comm& world) {
    std::vector<core::Particle> local =
        world.rank() == 0 ? particles : std::vector<core::Particle>{};
    core::ParallelSimulation sim(world, probe_cfg, std::move(local), 0.0);
    world.barrier();
    // Reset pool tallies after the bootstrap force so the busy-imbalance
    // figure covers only the measured steps (the pool is process-wide).
    if (world.rank() == 0) TaskPool::global().reset_stats();
    world.barrier();
    for (int s = 1; s <= nsteps; ++s) sim.step(s * dt);
    const double pp_local = sim.last_step().pp.get("tree traversal") +
                            sim.last_step().pp.get("force calculation");
    const double pp_max = world.allreduce_max(pp_local);
    const double pp_mean =
        world.allreduce_sum(pp_local) / static_cast<double>(world.size());
    const std::uint64_t inter_local = sim.last_step().pp_stats.interactions;
    const std::uint64_t inter_max = world.allreduce_max(inter_local);
    const std::uint64_t inter_sum = world.allreduce_sum(inter_local);
    if (world.rank() == 0) {
      std::lock_guard lock(mu);
      out.pp_imbalance = pp_mean > 0 ? pp_max / pp_mean : 0.0;
      out.work_imbalance = inter_sum > 0 ? static_cast<double>(inter_max) * world.size() /
                                               static_cast<double>(inter_sum)
                                         : 0.0;
      out.pool_imbalance = TaskPool::global().stats().imbalance();
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  constexpr int kRanks = 8;
  const char* jsonl_path = "BENCH_step.jsonl";

  if (!telemetry::enabled())
    std::printf("note: built with GREEM_TELEMETRY=OFF; step reports and traces "
                "will be empty.\n");
  // Appending to a stale JSONL from a previous run would mix runs.
  std::remove(jsonl_path);

  // Arm the flight-recorder dump path so the watchdog / sentinel /
  // fault-recovery hooks write their post-mortem artifact here, and start
  // the live introspection endpoint when requested.
  if (!opt.flight_dump.empty()) telemetry::set_flight_dump_path(opt.flight_dump);
  if (opt.live_port >= 0) {
    if (telemetry::LiveEndpoint::global().start(opt.live_port))
      std::printf("live endpoint listening on 127.0.0.1:%d\n",
                  telemetry::LiveEndpoint::global().port());
    else
      std::fprintf(stderr, "failed to start live endpoint on port %d\n", opt.live_port);
  }

  auto particles = core::clustered_particles(opt.particles, 1.0, 4, 0.7, 0.03, 2718);

  core::ParallelSimConfig cfg;
  cfg.dims = {2, 2, 2};
  cfg.pm.n_mesh = 32;
  cfg.pm.conversion.method = pm::MeshConversion::kRelay;
  cfg.pm.conversion.n_groups = 2;
  cfg.pm.conversion.n_fft = 4;  // < ranks, so the cross-group reduce/bcast run
  cfg.pool_threads = 4;         // exercise the pool so steal stats are non-trivial
  cfg.theta = 0.5;
  cfg.ncrit = 100;
  cfg.eps = 1e-3;
  cfg.sampling.target_samples = 10000;
  cfg.step_report_path = jsonl_path;
  cfg.restore_from = opt.restore_from;

  parx::Runtime rt(kRanks);
  if (!opt.faults.empty()) {
    parx::FaultPlan plan;
    for (const auto& s : opt.faults) plan.at(s);
    rt.set_fault_plan(plan);
  }
  if (opt.watchdog_s > 0)
    rt.set_watchdog({opt.watchdog_s, opt.watchdog_dump, opt.flight_dump});

  const double dt = 0.001;
  const auto schedule = [dt](std::uint64_t i) { return static_cast<double>(i + 1) * dt; };

  telemetry::StepRecord last;
  ckpt::RecoveryStats rstats;
  std::uint64_t final_n = 0;
  std::mutex mu;
  Stopwatch wall;
  rt.run([&](parx::Comm& world) {
    std::vector<core::Particle> local =
        world.rank() == 0 ? particles : std::vector<core::Particle>{};
    core::ParallelSimulation sim(world, cfg, std::move(local), 0.0);

    ckpt::RecoveryStats stats;
    if (opt.checkpoint_every > 0 || !opt.faults.empty() || opt.watchdog_s > 0) {
      ckpt::RecoveryOptions ropts;
      ropts.dir = opt.ckpt_dir;
      ropts.checkpoint_every = opt.checkpoint_every;
      ropts.keep_last = opt.keep_last;
      stats = ckpt::run_with_recovery(sim, static_cast<std::uint64_t>(opt.steps),
                                      schedule, ropts);
    } else {
      while (sim.step_index() < static_cast<std::uint64_t>(opt.steps))
        sim.step(schedule(sim.step_index()));
    }

    if (!opt.final_state.empty()) {
      // Gather everything on rank 0, order by id, snapshot: two runs that
      // agree bitwise produce byte-identical files.
      sim.synchronize();
      const auto loc = sim.local();
      auto all = world.gatherv(loc, 0);
      if (world.rank() == 0) {
        std::sort(all.begin(), all.end(),
                  [](const core::Particle& a, const core::Particle& b) {
                    return a.id < b.id;
                  });
        io::SnapshotHeader h;
        h.clock = sim.clock();
        h.particle_mass = all.empty() ? 0 : all[0].mass;
        if (!io::write_snapshot(opt.final_state, h, all))
          std::fprintf(stderr, "failed to write %s\n", opt.final_state.c_str());
        else
          std::printf("wrote final state %s (%zu particles)\n", opt.final_state.c_str(),
                      all.size());
      }
    }
    const std::uint64_t n = world.allreduce_sum(static_cast<std::uint64_t>(sim.local().size()));
    if (world.rank() == 0) {
      std::lock_guard lock(mu);
      last = sim.last_record();
      rstats = stats;
      final_n = n;
    }
  });
  const double wall_seconds = wall.seconds();

  // The run's trace: dump the main run's recent event history now, before
  // the probes and sweeps below wrap the per-thread rings.  If the watchdog
  // fired it already dumped the hang evidence to this path -- don't
  // overwrite it with post-hang history.
  if (!opt.flight_dump.empty() &&
      telemetry::Registry::global().counter("parx/watchdog_fired").value() == 0) {
    if (telemetry::write_chrome_trace(opt.flight_dump))
      std::printf("wrote %s (%llu flight events recorded)\n", opt.flight_dump.c_str(),
                  static_cast<unsigned long long>(telemetry::flight_event_count()));
  }

  // Large-N campaign: for each requested N, a short sweep over {no plan,
  // rate-0 plan} plus the load-balance probe on a mesh scaled to the
  // particle count.  Single run per configuration -- at these sizes the
  // runs are long enough that scheduler noise is a small relative error,
  // and the CI perf gate reads the ratios, not the absolute times.
  struct SweepPoint {
    std::size_t n = 0, n_mesh = 0;
    double no_plan_s = 0, rate0_s = 0;
    StepProbe probe;
  };
  std::vector<SweepPoint> sweep;
  if (!opt.large_n.empty() && opt.faults.empty() && opt.watchdog_s <= 0) {
    for (std::size_t n : opt.large_n) {
      SweepPoint p;
      p.n = n;
      // Smallest power-of-two mesh with at least one cell per particle
      // on average (n_mesh >= cbrt(N)), like the production configs.
      p.n_mesh = 8;
      while (p.n_mesh * p.n_mesh * p.n_mesh < n) p.n_mesh *= 2;
      std::printf("large-n sweep: N=%zu mesh=%zu^3...\n", n, p.n_mesh);
      auto pts = core::clustered_particles(n, 1.0, 4, 0.7, 0.03, 2718);
      auto scfg = cfg;
      scfg.pm.n_mesh = static_cast<int>(p.n_mesh);
      scfg.step_report_path.clear();
      scfg.restore_from.clear();
      constexpr int kSweepSteps = 2;
      // Discarded warmup: the first run at a new N pays allocator and
      // page-cache effects that would land entirely on the no-plan leg
      // and skew every ratio computed from it.
      (void)sim_steps_seconds(scfg, pts, kRanks, 1, dt, false);
      p.no_plan_s = sim_steps_seconds(scfg, pts, kRanks, kSweepSteps, dt, false);
      p.rate0_s = sim_steps_seconds(scfg, pts, kRanks, kSweepSteps, dt, true);
      p.probe = steps_probe(scfg, pts, kRanks, kSweepSteps, dt);
      sweep.push_back(p);
    }
  }

  if (std::ofstream os("BENCH_step.json"); os) {
    auto& reg = telemetry::Registry::global();
    telemetry::JsonWriter jw(os);
    jw.begin_object();
    telemetry::write_meta(
        jw, telemetry::RunMeta::collect("step",
                                        pp::phantom_variant_name(pp::phantom_dispatch())));
    jw.field("ranks", kRanks);
    jw.field("steps", opt.steps);
    jw.field("n_particles", final_n);
    jw.field("n_mesh", cfg.pm.n_mesh);
    jw.field("wall_seconds", wall_seconds);
    jw.field("step_report", jsonl_path);
    jw.field("trace", opt.flight_dump);
    jw.key("last_step").begin_object();
    jw.field("interactions", last.interactions);
    jw.field("flops", last.flops);
    jw.field("flop_rate", last.flop_rate);
    jw.field("pp_seconds_max", last.pp_seconds_max);
    jw.field("pp_imbalance", last.pp_imbalance());
    jw.field("pool_steals", last.pool_steals);
    jw.field("pool_imbalance", last.pool_imbalance);
    jw.field("ghosts_imported", last.ghosts_imported);
    if (!last.pp_groups.empty()) {
      std::uint64_t groups = 0;
      double max_group_s = 0;
      for (const auto& g : last.pp_groups) {
        groups += g.groups;
        max_group_s = std::max(max_group_s, g.max_group_s);
      }
      jw.field("pp_groups_total", groups);
      jw.field("pp_max_group_seconds", max_group_s);
    }
    jw.end_object();
    jw.key("checkpointing").begin_object();
    jw.field("checkpoint_every", opt.checkpoint_every);
    jw.field("checkpoints", rstats.checkpoints);
    jw.field("restores", rstats.restores);
    jw.field("failures", rstats.failures);
    jw.field("bytes", reg.counter("ckpt/bytes").value());
    jw.field("faults_injected", reg.counter("faults/injected").value());
    const auto* wh = reg.find_histogram("ckpt/write_seconds");
    const double write_seconds = wh ? wh->sum() : 0.0;
    jw.field("write_seconds", write_seconds);
    jw.field("overhead_fraction", wall_seconds > 0 ? write_seconds / wall_seconds : 0.0);
    jw.end_object();
    jw.key("transport").begin_object();
    jw.field("retransmits", reg.counter("parx/retransmits").value());
    jw.field("drops_injected", reg.counter("parx/drops_injected").value());
    jw.field("corrupted_injected", reg.counter("parx/corrupted_injected").value());
    jw.field("duplicates_injected", reg.counter("parx/duplicates_injected").value());
    jw.field("reordered_injected", reg.counter("parx/reordered_injected").value());
    jw.field("blackholed", reg.counter("parx/blackholed").value());
    jw.field("corrupt_detected", reg.counter("parx/corrupt_detected").value());
    jw.field("duplicates_dropped", reg.counter("parx/duplicates_dropped").value());
    jw.field("fastpath_messages", reg.counter("parx/fastpath_messages").value());
    jw.field("acks", reg.counter("parx/acks").value());
    jw.field("acks_piggybacked", reg.counter("parx/acks_piggybacked").value());
    jw.field("watchdog_fired", reg.counter("parx/watchdog_fired").value());
    jw.field("sentinel_checks", reg.counter("sentinel/checks").value());
    jw.field("sentinel_violations", reg.counter("sentinel/violations").value());
    jw.field("retransmit_messages", rt.ledger().totals().retransmit_messages);
    jw.field("retransmit_bytes", rt.ledger().totals().retransmit_bytes);
    {
      // Perfect-link overhead probe: raw zero-copy path vs the framed
      // transport with a rate-0 link plan (nothing ever fires).  Median
      // of 5 with a discarded warmup, each.
      constexpr int kRounds = 200;
      const double raw = median5_seconds(
          [&] { return alltoallv_rounds_seconds(kRounds, parx::FaultPlan()); });
      parx::FaultSpec idle;
      idle.step = parx::kEveryStep;
      idle.rank = parx::kEveryRank;
      idle.kind = parx::FaultKind::kLinkDrop;
      idle.rate = 0.0;
      idle.times = parx::kUnlimited;
      const TransportCounts before = TransportCounts::now();
      std::uint64_t messages = 0;
      const double reliable = median5_seconds([&] {
        return alltoallv_rounds_seconds(kRounds, parx::FaultPlan().at(idle), &messages);
      });
      const TransportCounts framed = TransportCounts::now().since(before, messages);
      jw.key("overhead_microbench").begin_object();
      jw.field("alltoallv_rounds", kRounds);
      jw.field("repeats", 5);
      jw.field("raw_seconds", raw);
      jw.field("reliable_seconds", reliable);
      jw.field("reliable_overhead_fraction", raw > 0 ? reliable / raw - 1.0 : 0.0);
      write_counts(jw, "reliable_", framed);
      jw.end_object();
    }
    if (opt.faults.empty() && opt.watchdog_s <= 0) {
      // Step-time probe for the headline acceptance number: real simulation
      // steps with no plan installed, measured as two independent
      // median-of-5 sets (their spread is the noise floor -- the disabled
      // transport costs one pointer test per message), plus a rate-0 plan
      // set bounding the fully-armed transport on the same workload.  The
      // transport counters of both legs are what CI gates: no plan frames
      // nothing, a rate-0 plan frames every message and fires nothing.
      constexpr int kProbeSteps = 2;
      std::uint64_t no_plan_messages = 0, rate0_messages = 0;
      auto no_plan = [&] {
        return sim_steps_seconds(cfg, particles, kRanks, kProbeSteps, dt, false,
                                 &no_plan_messages);
      };
      TransportCounts before = TransportCounts::now();
      const double a = median5_seconds(no_plan);
      const double b = median5_seconds(no_plan);
      const TransportCounts no_plan_counts = TransportCounts::now().since(before, no_plan_messages);
      before = TransportCounts::now();
      const double r0 = median5_seconds([&] {
        return sim_steps_seconds(cfg, particles, kRanks, kProbeSteps, dt, true, &rate0_messages);
      });
      const TransportCounts rate0_counts = TransportCounts::now().since(before, rate0_messages);
      jw.key("step_overhead_probe").begin_object();
      jw.field("steps", kProbeSteps);
      jw.field("repeats", 5);
      jw.field("no_plan_seconds", a);
      jw.field("no_plan_repeat_seconds", b);
      jw.field("rate0_transport_seconds", r0);
      jw.field("no_plan_overhead_fraction",
               std::max(a, b) > 0 ? std::abs(a - b) / std::max(a, b) : 0.0);
      jw.field("rate0_overhead_fraction",
               std::min(a, b) > 0 ? r0 / std::min(a, b) - 1.0 : 0.0);
      write_counts(jw, "no_plan_", no_plan_counts);
      write_counts(jw, "rate0_", rate0_counts);
      jw.end_object();
    }
    jw.end_object();
    if (opt.faults.empty() && opt.watchdog_s <= 0) {
      // Flight-recorder overhead probe: the same no-plan workload with the
      // recorder armed (the default) vs disarmed, median of 5 each.  The
      // always-on recording budget is "a few relaxed stores per event", so
      // its cost scales with the events recorded per step: that count (six
      // armed runs, set-up included, over their steps) is what the CI perf
      // gate bounds, with the disarmed runs recording none.
      constexpr int kProbeSteps = 2;
      constexpr int kRuns = 6;  // median5_seconds: a warmup and five samples
      auto no_plan = [&] {
        return sim_steps_seconds(cfg, particles, kRanks, kProbeSteps, dt, false);
      };
      const std::uint64_t e0 = telemetry::flight_event_count();
      const double armed = median5_seconds(no_plan);
      const std::uint64_t e1 = telemetry::flight_event_count();
      telemetry::set_flight_recorder_enabled(false);
      const double disarmed = median5_seconds(no_plan);
      telemetry::set_flight_recorder_enabled(true);
      const std::uint64_t e2 = telemetry::flight_event_count();
      jw.key("flight_recorder").begin_object();
      jw.field("enabled", telemetry::enabled());
      jw.field("events_recorded", telemetry::flight_event_count());
      jw.field("probe_steps", kProbeSteps);
      jw.field("repeats", 5);
      jw.field("armed_events_per_step",
               static_cast<double>(e1 - e0) / static_cast<double>(kRuns * kProbeSteps));
      jw.field("disarmed_events", e2 - e1);
      jw.field("armed_seconds", armed);
      jw.field("disarmed_seconds", disarmed);
      jw.field("overhead_fraction", disarmed > 0 ? armed / disarmed - 1.0 : 0.0);
      jw.end_object();
    }
    if (!sweep.empty()) {
      jw.key("large_n_sweep").begin_array();
      for (const auto& p : sweep) {
        jw.begin_object();
        jw.field("n_particles", p.n);
        jw.field("n_mesh", p.n_mesh);
        jw.field("steps", 2);
        jw.field("no_plan_seconds", p.no_plan_s);
        jw.field("rate0_seconds", p.rate0_s);
        jw.field("rate0_overhead_fraction",
                 p.no_plan_s > 0 ? p.rate0_s / p.no_plan_s - 1.0 : 0.0);
        jw.field("pp_imbalance", p.probe.pp_imbalance);
        jw.field("work_imbalance", p.probe.work_imbalance);
        jw.field("pool_imbalance", p.probe.pool_imbalance);
        jw.end_object();
      }
      jw.end_array();
    }
    jw.key("counters").begin_object();
    for (const auto& [name, v] : reg.counters()) jw.field(name, v);
    jw.end_object();
    jw.end_object();
    os << "\n";
    std::printf("wrote BENCH_step.json and %s (step %llu: %.3g Gflops short-range, "
                "%llu ckpts, %llu restores)\n",
                jsonl_path, static_cast<unsigned long long>(last.step),
                last.flop_rate * 1e-9,
                static_cast<unsigned long long>(rstats.checkpoints),
                static_cast<unsigned long long>(rstats.restores));
  }
  telemetry::LiveEndpoint::global().stop();
  return 0;
}
