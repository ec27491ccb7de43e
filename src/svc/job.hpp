#pragma once
// Job: one simulation as a schedulable unit of the service layer.  A
// JobSpec is the client-facing description (physics knobs + fault plan +
// output cadence); the service turns it into a ParallelSimConfig, a
// deterministic initial condition and a per-job fault domain, and drives
// it through the lifecycle state machine
//
//   queued -> running <-> checkpointing -> done
//                 \-> failed / cancelled
//
// Everything here is deterministic in the spec: the same (spec, rank
// count) yields the same config fingerprint and the same IC bytes, which
// is what makes the solo-vs-daemon bitwise contract (EXPERIMENTS.md)
// checkable at all.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel_sim.hpp"
#include "core/particle.hpp"
#include "parx/fault.hpp"
#include "telemetry/json_reader.hpp"

namespace greem::svc {

/// Lifecycle states.  kQueued/kRunning/kCheckpointing are live;
/// kDone/kFailed/kCancelled are terminal.
enum class JobState {
  kQueued,
  kRunning,
  kCheckpointing,
  kDone,
  kFailed,
  kCancelled,
};

std::string_view to_string(JobState s);
/// Inverse of to_string (journal snapshots round-trip states through it).
std::optional<JobState> state_from_string(std::string_view s);
bool is_terminal(JobState s);

/// Client-facing description of one simulation.  Defaults are sized for
/// the service soak: small (thousands of particles), a handful of steps.
struct JobSpec {
  std::string name;          ///< free-form label (echoed in status/list)
  int priority = 1;          ///< fair-share weight (>= 1); higher = more steps/s
  std::uint64_t steps = 4;   ///< total steps to run
  double dt = 1e-3;          ///< fixed step size; step k targets t = k*dt

  // Initial condition (deterministic in the seed).
  std::uint64_t n_particles = 2048;
  std::uint64_t seed = 1;
  int nclusters = 4;
  double cluster_fraction = 0.5;

  // Physics / solver knobs (the subset worth varying per job).
  int n_mesh = 32;
  double theta = 0.5;
  std::uint32_t ncrit = 100;
  double eps = 1e-3;
  int nsub = 2;

  /// Fault plan in the parx/fault.hpp grammar ("STEP:PHASE[:RANK[:KIND]]"
  /// with optional "@RATE"/"xN"), armed into this job's private fault
  /// domain -- fire-once budgets persist across scheduling slices and a
  /// trip rolls back only this job.
  std::vector<std::string> faults;
  std::uint64_t link_seed = 0;  ///< 0 = the plan's default seed

  // Checkpoint / rollback domain (per-job dir under the service root).
  std::uint64_t checkpoint_every = 0;  ///< steps between checkpoints (0 = never)
  std::size_t keep_last = 2;
  int max_attempts = 3;  ///< consecutive rollbacks tolerated before kFailed

  // Output cadence (all paths live under the job dir).
  std::uint64_t snapshot_every = 0;  ///< frame_<step>.bin cadence (0 = never)
  bool final_snapshot = true;        ///< write final.bin at completion
  bool step_report = true;           ///< per-step JSONL into steps.jsonl
};

/// Render `spec` as one compact JSON object (the `spec` payload of the
/// submit command; round-trips through spec_from_json).
std::string spec_to_json(const JobSpec& spec);

/// Build a spec from a parsed JSON object; unknown fields are ignored,
/// absent fields keep their defaults.  Returns nullopt when `v` is not an
/// object or a present field is malformed (negative counts, zero steps,
/// max_attempts < 1); when `reason` is non-null it receives a one-line
/// description of the first problem, for structured error replies.
std::optional<JobSpec> spec_from_json(const telemetry::JsonValue& v,
                                      std::string* reason = nullptr);

/// Validate a spec wherever it came from (JSON or the C++ API): returns
/// an empty string when acceptable, else the reason it is not.
std::string spec_problem(const JobSpec& spec);

/// Near-cubic rank grid with product == nranks (greedy prime split).
std::array<int, 3> dims_for(int nranks);

/// The ParallelSimConfig a spec runs under on `nranks` ranks, with a
/// seeded sampling RNG so runs are bitwise reproducible.  `job_label`
/// and `step_report_path` are left empty -- the service fills them from
/// the job id, a solo run may leave them empty.
core::ParallelSimConfig make_sim_config(const JobSpec& spec, int nranks);

/// The deterministic IC: clustered_particles from the spec's seed, total
/// mass 1.  Every caller (service rank 0, solo baseline) gets identical
/// bytes.
std::vector<core::Particle> make_initial_particles(const JobSpec& spec);

/// The spec's fault plan (empty plan when spec.faults is empty); throws
/// std::invalid_argument on a string the grammar rejects, so a bad submit
/// fails at submit time, not mid-run.
parx::FaultPlan make_fault_plan(const JobSpec& spec);

}  // namespace greem::svc
