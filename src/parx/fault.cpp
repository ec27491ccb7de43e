#include "parx/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <limits>

#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace greem::parx {
namespace {

thread_local FaultContext t_ctx{};

std::string describe(const FaultSpec& s) {
  std::string out = "parx: injected ";
  out += to_string(s.kind);
  out += " on rank ";
  out += s.rank == kEveryRank ? "*" : std::to_string(s.rank);
  out += " at step ";
  out += s.step == kEveryStep ? "*" : std::to_string(s.step);
  out += " phase ";
  out += to_string(s.phase);
  return out;
}

bool kind_matches_op(FaultKind kind, FaultOp op) {
  switch (kind) {
    case FaultKind::kRankAbort: return true;
    case FaultKind::kHang: return true;
    case FaultKind::kSendFailure: return op == FaultOp::kSend;
    case FaultKind::kCollectiveFailure: return op == FaultOp::kCollective;
    default: return false;  // link kinds never fire at an injection point
  }
}

}  // namespace

FaultInjected::FaultInjected(const FaultSpec& s) : CommError(describe(s)), spec(s) {}

void set_fault_context(std::uint64_t step, FaultPhase phase) { t_ctx = {step, phase}; }

FaultContext fault_context() { return t_ctx; }

const char* to_string(FaultPhase p) {
  switch (p) {
    case FaultPhase::kAny: return "any";
    case FaultPhase::kDD: return "dd";
    case FaultPhase::kPM: return "pm";
    case FaultPhase::kPP: return "pp";
    case FaultPhase::kCkpt: return "ckpt";
  }
  return "?";
}

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kRankAbort: return "rank-abort";
    case FaultKind::kSendFailure: return "send-failure";
    case FaultKind::kCollectiveFailure: return "collective-failure";
    case FaultKind::kHang: return "hang";
    case FaultKind::kLinkDrop: return "drop";
    case FaultKind::kLinkCorrupt: return "corrupt";
    case FaultKind::kLinkDuplicate: return "dup";
    case FaultKind::kLinkReorder: return "reorder";
    case FaultKind::kLinkBlackhole: return "lose";
  }
  return "?";
}

bool spec_matches_context(const FaultSpec& s, int world_rank, const FaultContext& ctx) {
  if (ctx.step == kNoFaultStep) return false;
  if (s.rank != kEveryRank && s.rank != world_rank) return false;
  if (s.step != kEveryStep && s.step != ctx.step) return false;
  if (s.phase != FaultPhase::kAny && s.phase != ctx.phase) return false;
  return true;
}

std::vector<FaultSpec> FaultPlan::failstop_specs() const {
  std::vector<FaultSpec> out;
  for (const auto& s : specs_)
    if (!is_link_fault(s.kind)) out.push_back(s);
  return out;
}

std::vector<FaultSpec> FaultPlan::link_specs() const {
  std::vector<FaultSpec> out;
  for (const auto& s : specs_)
    if (is_link_fault(s.kind)) out.push_back(s);
  return out;
}

FaultPlan FaultPlan::random(std::uint64_t seed, int n_faults, std::uint64_t max_step,
                            int nranks) {
  FaultPlan plan;
  Rng rng(seed, /*stream=*/0xFA017);
  constexpr FaultPhase kPhases[] = {FaultPhase::kDD, FaultPhase::kPM, FaultPhase::kPP};
  for (int i = 0; i < n_faults; ++i) {
    FaultSpec s;
    s.step = 1 + rng.uniform_index(max_step > 0 ? max_step : 1);
    s.phase = kPhases[rng.uniform_index(3)];
    s.kind = FaultKind::kRankAbort;
    s.rank = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(nranks)));
    plan.at(s);
  }
  return plan;
}

std::optional<FaultSpec> parse_fault_at(std::string_view s) {
  auto next_field = [&]() -> std::string_view {
    const std::size_t colon = s.find(':');
    std::string_view f = s.substr(0, colon);
    s = colon == std::string_view::npos ? std::string_view{} : s.substr(colon + 1);
    return f;
  };
  // Digit strings only, rejected (not wrapped) past `max`.
  auto parse_u64 = [](std::string_view f, std::uint64_t max, std::uint64_t& out) {
    if (f.empty()) return false;
    out = 0;
    for (char c : f) {
      if (c < '0' || c > '9') return false;
      const auto d = static_cast<std::uint64_t>(c - '0');
      if (out > (max - d) / 10) return false;
      out = out * 10 + d;
    }
    return true;
  };
  constexpr auto kIntMax = static_cast<std::uint64_t>(std::numeric_limits<int>::max());

  FaultSpec spec;
  const std::string_view step = next_field();
  if (step == "*") {
    spec.step = kEveryStep;
  } else {
    std::uint64_t v = 0;
    // The two top values are the kEveryStep / kNoFaultStep sentinels.
    if (!parse_u64(step, kEveryStep - 1, v)) return std::nullopt;
    spec.step = v;
  }

  const std::string_view phase = next_field();
  if (phase == "any") spec.phase = FaultPhase::kAny;
  else if (phase == "dd") spec.phase = FaultPhase::kDD;
  else if (phase == "pm") spec.phase = FaultPhase::kPM;
  else if (phase == "pp") spec.phase = FaultPhase::kPP;
  else if (phase == "ckpt") spec.phase = FaultPhase::kCkpt;
  else return std::nullopt;

  if (!s.empty()) {
    const std::string_view rank = next_field();
    if (rank == "*") {
      spec.rank = kEveryRank;
    } else {
      std::uint64_t v = 0;
      if (!parse_u64(rank, kIntMax, v)) return std::nullopt;
      spec.rank = static_cast<int>(v);
    }
  }
  if (!s.empty()) {
    std::string_view kind = next_field();
    // Optional "xN" budget suffix, then optional "@RATE" probability.
    std::optional<int> times;
    if (const std::size_t x = kind.rfind('x'); x != std::string_view::npos &&
                                               x > 0 && kind.find('@') != std::string_view::npos &&
                                               x > kind.find('@')) {
      std::uint64_t n = 0;
      if (!parse_u64(kind.substr(x + 1), kIntMax, n) || n == 0) return std::nullopt;
      times = static_cast<int>(n);
      kind = kind.substr(0, x);
    }
    std::optional<double> rate;
    if (const std::size_t at = kind.find('@'); at != std::string_view::npos) {
      const std::string_view r = kind.substr(at + 1);
      if (r.empty()) return std::nullopt;
      std::string buf(r);
      char* end = nullptr;
      const double v = std::strtod(buf.c_str(), &end);
      // Written so that NaN fails the range test too.
      if (end != buf.c_str() + buf.size() || !(v >= 0.0 && v <= 1.0)) return std::nullopt;
      rate = v;
      kind = kind.substr(0, at);
    }

    if (kind == "abort") spec.kind = FaultKind::kRankAbort;
    else if (kind == "send") spec.kind = FaultKind::kSendFailure;
    else if (kind == "collective") spec.kind = FaultKind::kCollectiveFailure;
    else if (kind == "hang") spec.kind = FaultKind::kHang;
    else if (kind == "drop") spec.kind = FaultKind::kLinkDrop;
    else if (kind == "corrupt") spec.kind = FaultKind::kLinkCorrupt;
    else if (kind == "dup") spec.kind = FaultKind::kLinkDuplicate;
    else if (kind == "reorder") spec.kind = FaultKind::kLinkReorder;
    else if (kind == "lose") spec.kind = FaultKind::kLinkBlackhole;
    else return std::nullopt;

    if (is_link_fault(spec.kind)) {
      spec.rate = rate.value_or(1.0);
      spec.times = times.value_or(spec.kind == FaultKind::kLinkBlackhole ? 1 : kUnlimited);
    } else {
      // Rates/budgets on fail-stop kinds are a grammar error.
      if (rate || times) return std::nullopt;
    }
  }
  if (!s.empty()) return std::nullopt;
  return spec;
}

struct FaultInjector::Armed {
  FaultSpec spec;
  std::atomic<int> remaining{0};
};

FaultInjector::FaultInjector(std::vector<FaultSpec> specs) : n_(specs.size()) {
  armed_ = std::make_unique<Armed[]>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    armed_[i].spec = specs[i];
    armed_[i].remaining.store(specs[i].times, std::memory_order_relaxed);
  }
}

FaultInjector::~FaultInjector() = default;

std::optional<FaultSpec> FaultInjector::should_fire(int world_rank, FaultOp op,
                                                    const FaultContext& ctx) {
  for (std::size_t i = 0; i < n_; ++i) {
    Armed& a = armed_[i];
    const FaultSpec& s = a.spec;
    if (!spec_matches_context(s, world_rank, ctx)) continue;
    if (!kind_matches_op(s.kind, op)) continue;
    if (s.times != kUnlimited) {
      if (a.remaining.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        a.remaining.fetch_add(1, std::memory_order_relaxed);  // spent; undo
        continue;
      }
    }
    telemetry::Registry::global().counter("faults/injected").add();
    return s;
  }
  return std::nullopt;
}

}  // namespace greem::parx
