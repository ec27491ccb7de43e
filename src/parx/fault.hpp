#pragma once
// Deterministic fault injection for parx, the testing ground for the
// checkpoint/rollback-recovery loop: a production trillion-body run loses
// nodes mid-step and drops packets on congested links, so the in-process
// MPI stand-in can be told to do both, reproducibly.
//
// Two fault families share one FaultPlan:
//
//  * Fail-stop faults (abort / send / collective / hang) fire at a Comm
//    operation entry.  When the calling rank's (step, phase) context
//    matches an armed spec, the op throws FaultInjected and raises a
//    job-wide fault flag; every other rank's next (or current, if
//    blocked) Comm operation throws RemoteFault.  Both derive from
//    CommError, the typed "communicator is broken" signal the recovery
//    driver catches.  kHang does not throw: the rank freezes inside the
//    op until the watchdog (see parx/transport.hpp) or a sibling fault
//    raises the flag.  Specs fire a bounded number of times (default
//    once), so a retried step succeeds.
//  * Link faults (drop / corrupt / dup / reorder / lose) never throw.
//    They configure the lossy-link model underneath the reliable
//    transport sublayer: each matching message is perturbed with the
//    spec's probability `rate`, decided by a counter-based hash of
//    (seed, src, dst, seq, attempt) so the loss pattern is reproducible
//    and independent of thread timing.  The reliability sublayer makes
//    delivery exact again; only an exhausted retransmit budget surfaces
//    as CommError (see docs/fault-model.md).
//
//  * After catching a CommError, *every* rank must call
//    Comm::fault_recover() on the world communicator: a rendezvous that
//    waits for all ranks, then drains mailboxes, resets barriers, split
//    staging and transport state in every live communicator group, and
//    clears the fault flag.  Comm state is then as-new; simulation state
//    is the caller's problem (that is what checkpoints are for).
//
// Fail-stop faults fire only at Comm entry points.  A spec whose
// (step, phase, rank) performs no communication never fires; a fatal
// (non-injected) exception on a sibling rank still surfaces as
// JobPoisoned, which does NOT derive from CommError and must not be
// swallowed by recovery loops.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace greem::parx {

/// Base of all typed communication failures (injected or secondary).
class CommError : public std::runtime_error {
 public:
  explicit CommError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by the deadline-aware recv_bytes/barrier variants when the
/// deadline expires before the operation completes.
class TimeoutError : public CommError {
 public:
  explicit TimeoutError(const std::string& what) : CommError(what) {}
};

/// Thrown when the fault_recover rendezvous itself times out: a rank
/// failed to join recovery, so the job is unrecoverable.  Deliberately
/// NOT a CommError -- recovery loops must let it propagate.
class RecoveryTimeout : public std::runtime_error {
 public:
  explicit RecoveryTimeout(const std::string& what) : std::runtime_error(what) {}
};

enum class FaultKind : std::uint8_t {
  // -- fail-stop kinds (throw CommError at a Comm op entry) --
  kRankAbort,          ///< the rank dies: fires at its next comm op of any kind
  kSendFailure,        ///< a point-to-point send fails
  kCollectiveFailure,  ///< a synchronizing collective entry fails
  kHang,               ///< the rank freezes in the op until the watchdog fires
  // -- link kinds (perturb messages under the reliable transport) --
  kLinkDrop,       ///< message silently lost
  kLinkCorrupt,    ///< one bit of the frame flipped (CRC catches it)
  kLinkDuplicate,  ///< message delivered twice
  kLinkReorder,    ///< message overtaken by the next one on the link
  kLinkBlackhole,  ///< message and all its retransmits lost ("lose"):
                   ///< deterministically exhausts the retry budget
};

/// True for the lossy-link kinds handled by the transport sublayer.
constexpr bool is_link_fault(FaultKind k) {
  return k >= FaultKind::kLinkDrop;
}

/// Phase tag of the fault context; drivers map their phases onto these.
enum class FaultPhase : std::uint8_t { kAny, kDD, kPM, kPP, kCkpt };

/// Context step value meaning "not inside any faultable region".
inline constexpr std::uint64_t kNoFaultStep = ~std::uint64_t{0};
/// Wildcard spec step: matches every step ("*" in the grammar).
inline constexpr std::uint64_t kEveryStep = ~std::uint64_t{0} - 1;
/// Wildcard spec rank: matches every rank ("*" in the grammar).
inline constexpr int kEveryRank = -1;
/// Spec budget meaning "unlimited firings" (link-fault default).
inline constexpr int kUnlimited = -1;

struct FaultSpec {
  std::uint64_t step = 1;               ///< 1-based step (0 = setup), kEveryStep = any
  FaultPhase phase = FaultPhase::kAny;  ///< kAny matches every phase of the step
  FaultKind kind = FaultKind::kRankAbort;
  int rank = 0;     ///< world rank that fails (sender for link faults); kEveryRank = any
  int times = 1;    ///< firings before the spec is spent; kUnlimited = no budget
  double rate = 1.0;  ///< link faults: per-message probability in [0, 1]
};

/// Thrown on the rank named by a matching fail-stop spec.
class FaultInjected : public CommError {
 public:
  explicit FaultInjected(const FaultSpec& s);
  FaultSpec spec;
};

/// Thrown on every other rank once the fault flag is up (and on every
/// rank when the transport or watchdog raised it: the flag's reason
/// string, when set, becomes the message).
class RemoteFault : public CommError {
 public:
  RemoteFault() : CommError("parx: a sibling rank hit an injected fault") {}
  explicit RemoteFault(const std::string& reason) : CommError(reason) {}
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Append a spec; chainable.
  FaultPlan& at(const FaultSpec& s) {
    specs_.push_back(s);
    return *this;
  }

  /// Seed of the lossy-link model's counter-based hash; chainable.
  /// Different seeds draw different (but each reproducible) loss patterns.
  FaultPlan& link_seed(std::uint64_t seed) {
    link_seed_ = seed;
    return *this;
  }
  std::uint64_t link_seed() const { return link_seed_; }

  /// Seeded random plan: `n_faults` rank-aborts at uniform step in
  /// [1, max_step], uniform phase in {dd, pm, pp}, uniform rank in
  /// [0, nranks).  Deterministic in the seed (chaos testing with replay).
  static FaultPlan random(std::uint64_t seed, int n_faults, std::uint64_t max_step,
                          int nranks);

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  /// The fail-stop / link subsets of the plan.
  std::vector<FaultSpec> failstop_specs() const;
  std::vector<FaultSpec> link_specs() const;

 private:
  std::vector<FaultSpec> specs_;
  std::uint64_t link_seed_ = 0x9E3779B97F4A7C15ull;
};

struct FaultContext {
  std::uint64_t step = kNoFaultStep;
  FaultPhase phase = FaultPhase::kAny;
};

/// Set / read the calling rank thread's fault context (thread-local).
void set_fault_context(std::uint64_t step, FaultPhase phase);
FaultContext fault_context();

const char* to_string(FaultPhase p);
const char* to_string(FaultKind k);

/// Parse "STEP:PHASE[:RANK[:KIND]]" where STEP and RANK may be "*"
/// (every step / every rank), PHASE in {any,dd,pm,pp,ckpt} and KIND one
/// of the fail-stop kinds {abort,send,collective,hang} or a link kind
/// {drop,corrupt,dup,reorder,lose} with an optional "@RATE" probability
/// and "xN" firing budget.  Examples: "3:pp", "2:dd:1", "4:any:0:send",
/// "*:any:*:drop@0.01", "2:pp:*:lose", "5:pm:1:corrupt@0.001x10".
/// Link kinds default to rate 1 and an unlimited budget, except `lose`
/// whose budget defaults to 1 (each firing dooms exactly one message).
/// Numbers that do not fit their field (STEP in u64 below the wildcard
/// sentinels, RANK and N in int) and rates outside [0, 1], NaN included,
/// are rejected rather than wrapped.
std::optional<FaultSpec> parse_fault_at(std::string_view s);

/// Which class of Comm operation an injection point sits in.
enum class FaultOp : std::uint8_t { kSend, kRecv, kCollective };

/// True when `spec` matches the sender-side context (step, phase, rank
/// wildcards included).  Shared by the fail-stop injector and the
/// lossy-link model.
bool spec_matches_context(const FaultSpec& s, int world_rank, const FaultContext& ctx);

/// Armed form of the fail-stop subset of a FaultPlan, shared by every
/// Comm of a Runtime.  should_fire is called from concurrent rank
/// threads; firing decrements the spec's remaining count atomically, so
/// `times` is a global budget.
class FaultInjector {
 public:
  explicit FaultInjector(std::vector<FaultSpec> specs);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The spec to fire at this injection point, if any (marks it fired and
  /// bumps the faults/injected counter).
  std::optional<FaultSpec> should_fire(int world_rank, FaultOp op, const FaultContext& ctx);

 private:
  struct Armed;
  std::unique_ptr<Armed[]> armed_;  // fixed array: Armed holds an atomic (immovable)
  std::size_t n_ = 0;
};

}  // namespace greem::parx
