#include "svc/job.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace greem::svc {

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCheckpointing: return "checkpointing";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::optional<JobState> state_from_string(std::string_view s) {
  for (const JobState st :
       {JobState::kQueued, JobState::kRunning, JobState::kCheckpointing,
        JobState::kDone, JobState::kFailed, JobState::kCancelled})
    if (s == to_string(st)) return st;
  return std::nullopt;
}

bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled;
}

std::string spec_to_json(const JobSpec& spec) {
  std::ostringstream os;
  telemetry::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("name", spec.name);
  w.field("priority", spec.priority);
  w.field("steps", spec.steps);
  w.field("dt", spec.dt);
  w.field("n_particles", spec.n_particles);
  w.field("seed", spec.seed);
  w.field("nclusters", spec.nclusters);
  w.field("cluster_fraction", spec.cluster_fraction);
  w.field("n_mesh", spec.n_mesh);
  w.field("theta", spec.theta);
  w.field("ncrit", spec.ncrit);
  w.field("eps", spec.eps);
  w.field("nsub", spec.nsub);
  if (!spec.faults.empty()) {
    w.key("faults").begin_array();
    for (const auto& f : spec.faults) w.value(f);
    w.end_array();
  }
  if (spec.link_seed != 0) w.field("link_seed", spec.link_seed);
  w.field("checkpoint_every", spec.checkpoint_every);
  w.field("keep_last", static_cast<std::uint64_t>(spec.keep_last));
  w.field("max_attempts", spec.max_attempts);
  w.field("snapshot_every", spec.snapshot_every);
  w.field("final_snapshot", spec.final_snapshot);
  w.field("step_report", spec.step_report);
  w.end_object();
  return os.str();
}

std::string spec_problem(const JobSpec& s) {
  if (s.priority < 1) return "priority must be >= 1";
  if (s.steps == 0) return "steps must be >= 1";
  if (s.n_particles == 0) return "n_particles must be >= 1";
  if (s.nsub < 1) return "nsub must be >= 1";
  if (s.n_mesh < 4) return "n_mesh must be >= 4";
  if (!(s.dt > 0)) return "dt must be > 0";
  if (s.max_attempts < 1) return "max_attempts must be >= 1";
  return {};
}

std::optional<JobSpec> spec_from_json(const telemetry::JsonValue& v,
                                      std::string* reason) {
  const auto fail = [&](std::string_view why) -> std::optional<JobSpec> {
    if (reason) *reason = std::string(why);
    return std::nullopt;
  };
  if (!v.is_object()) return fail("spec must be a JSON object");
  JobSpec s;
  s.name = v.string_or("name", s.name);
  s.priority = static_cast<int>(v.number_or("priority", s.priority));
  s.steps = v.u64_or("steps", s.steps);
  s.dt = v.number_or("dt", s.dt);
  s.n_particles = v.u64_or("n_particles", s.n_particles);
  s.seed = v.u64_or("seed", s.seed);
  s.nclusters = static_cast<int>(v.number_or("nclusters", s.nclusters));
  s.cluster_fraction = v.number_or("cluster_fraction", s.cluster_fraction);
  s.n_mesh = static_cast<int>(v.number_or("n_mesh", s.n_mesh));
  s.theta = v.number_or("theta", s.theta);
  s.ncrit = static_cast<std::uint32_t>(v.number_or("ncrit", s.ncrit));
  s.eps = v.number_or("eps", s.eps);
  s.nsub = static_cast<int>(v.number_or("nsub", s.nsub));
  if (const auto* f = v.find("faults")) {
    if (!f->is_array()) return fail("faults must be an array of strings");
    for (const auto& item : f->items()) {
      if (!item.is_string()) return fail("faults must be an array of strings");
      s.faults.push_back(item.as_string());
    }
  }
  s.link_seed = v.u64_or("link_seed", s.link_seed);
  s.checkpoint_every = v.u64_or("checkpoint_every", s.checkpoint_every);
  s.keep_last = static_cast<std::size_t>(
      v.u64_or("keep_last", static_cast<std::uint64_t>(s.keep_last)));
  s.max_attempts = static_cast<int>(v.number_or("max_attempts", s.max_attempts));
  s.snapshot_every = v.u64_or("snapshot_every", s.snapshot_every);
  if (const auto* b = v.find("final_snapshot")) s.final_snapshot = b->as_bool(true);
  if (const auto* b = v.find("step_report")) s.step_report = b->as_bool(true);
  if (const std::string why = spec_problem(s); !why.empty()) return fail(why);
  return s;
}

std::array<int, 3> dims_for(int nranks) {
  std::array<int, 3> d{1, 1, 1};
  int rem = nranks;
  for (int f = 2; rem > 1;) {
    if (rem % f == 0) {
      *std::min_element(d.begin(), d.end()) *= f;
      rem /= f;
    } else {
      ++f;
    }
  }
  std::sort(d.begin(), d.end(), std::greater<>());
  return d;
}

core::ParallelSimConfig make_sim_config(const JobSpec& spec, int nranks) {
  core::ParallelSimConfig cfg;
  cfg.dims = dims_for(nranks);
  cfg.pm.n_mesh = spec.n_mesh;
  cfg.theta = spec.theta;
  cfg.ncrit = spec.ncrit;
  cfg.eps = spec.eps;
  cfg.nsub = spec.nsub;
  cfg.sampling.target_samples = 10000;
  return cfg;
}

std::vector<core::Particle> make_initial_particles(const JobSpec& spec) {
  return core::clustered_particles(static_cast<std::size_t>(spec.n_particles),
                                   /*total_mass=*/1.0, spec.nclusters,
                                   spec.cluster_fraction, /*scale=*/0.05, spec.seed);
}

parx::FaultPlan make_fault_plan(const JobSpec& spec) {
  parx::FaultPlan plan;
  for (const auto& s : spec.faults) {
    const auto parsed = parx::parse_fault_at(s);
    if (!parsed) throw std::invalid_argument("svc: bad fault spec: " + s);
    plan.at(*parsed);
  }
  if (spec.link_seed != 0) plan.link_seed(spec.link_seed);
  return plan;
}

}  // namespace greem::svc
