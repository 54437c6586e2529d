#pragma once
// Fault taxonomy and recovery policy knobs of the fault-tolerant pipeline
// runner (see DESIGN.md §11 "Failure handling & recovery").
//
// The placement/routing flow is a long multi-stage loop; a numerical
// blow-up, a livelocked router, or a tripped invariant audit must not end
// the run. Divergence detectors (and the PR-2 auditors) raise a typed
// RecoverableError; the StageGuard (stage_guard.hpp) applies a bounded
// recovery ladder — rollback to the last-good checkpoint, halve the
// Nesterov step, tighten the lambda schedule, relax the router capacity
// model, or skip an optional stage — so the run finishes with the best
// state it reached.
//
// On a clean run every detector only *observes* (finite checks, metric
// comparisons); results are bitwise identical with recovery enabled or
// disabled.

#include <stdexcept>
#include <string>
#include <vector>

namespace rdp {

class AuditFailure;  // util/check.hpp

namespace recover {

/// Every failure class the pipeline can detect (and the fault-injection
/// harness can induce). Kebab-case names — fault_kind_name() — are the
/// spelling used by RDP_FAULT=stage:kind:iter.
enum class FaultKind {
    GradientNaN,          ///< non-finite objective terms / gradients
    HpwlExplosion,        ///< wirelength beyond k x checkpoint (and die bound)
    OverflowOscillation,  ///< outer-loop overflow swinging instead of converging
    RouterNoProgress,     ///< RRR livelock: stalled rounds with absurd overflow
    StageTimeout,         ///< per-stage wall-clock/iteration budget exhausted
    CorruptedDemand,      ///< non-finite or negative router demand maps
    CorruptedBudget,      ///< invalid inflation ratios / budget bookkeeping
    AuditViolation,       ///< any other tripped invariant audit
};

const char* fault_kind_name(FaultKind k);
/// Inverse of fault_kind_name (exact match); false when unknown.
bool parse_fault_kind(const std::string& name, FaultKind& out);

/// Typed, recoverable pipeline fault. Thrown by the divergence detectors
/// and by the conversion of AuditFailure inside guarded stages; caught by
/// the stage's recovery loop, never meant to escape a guarded pipeline.
class RecoverableError : public std::runtime_error {
public:
    RecoverableError(FaultKind kind, std::string stage,
                     const std::string& message);

    FaultKind kind() const { return kind_; }
    const std::string& stage() const { return stage_; }

private:
    FaultKind kind_;
    std::string stage_;
};

/// Map a tripped invariant audit onto the fault taxonomy by the invariant
/// it named (finite-gradients -> GradientNaN, router-accounting /
/// congestion-finite -> CorruptedDemand, inflation-budget ->
/// CorruptedBudget, anything else -> AuditViolation).
FaultKind classify_audit_failure(const AuditFailure& failure);

/// Classify the exception in flight, from inside a guarded stage's
/// `catch (...)`: a RecoverableError keeps its kind, a tripped audit maps
/// through classify_audit_failure, and `what` receives the message. Any
/// other exception is rethrown, and so is every exception while `active`
/// is false: an unguarded run fails loudly instead of recovering.
FaultKind classify_in_flight(bool active, std::string& what);

/// Recovery policy knobs (part of PlacerConfig). Detection thresholds are
/// deliberately far outside what a healthy run produces: on a clean run no
/// detector trips and the recovery layer is invisible.
struct RecoverConfig {
    /// Master switch. The environment variable RDP_RECOVER=0 forces the
    /// layer off regardless (resolved by StageGuard).
    bool enabled = true;
    /// Recovery attempts per guarded stage before it degrades to its best
    /// snapshot.
    int max_retries = 2;
    /// Wirelength explosion: WA total beyond this multiple of the last
    /// checkpoint's wirelength AND beyond the physical die bound
    /// (sum over nets of region width+height). Checkpoints follow the
    /// durable cadence, DurableOptions::every.
    double hpwl_explosion_factor = 20.0;
    /// Overflow oscillation: this many consecutive sign alternations of
    /// the outer-loop overflow, each with relative amplitude above
    /// osc_amplitude, call the schedule divergent.
    int osc_flips = 4;
    double osc_amplitude = 0.75;
    /// Router livelock: every RRR round stalled AND severity-weighted
    /// overflow beyond this absolute floor.
    double router_livelock_overflow = 1e6;
    /// Per-stage wall-clock budget in milliseconds; 0 = unlimited. The
    /// environment variable RDP_STAGE_BUDGET_MS overrides when set.
    double stage_budget_ms = 0.0;
    /// Nesterov step scale applied per rollback ("halve the step").
    double step_shrink = 0.5;
    /// lambda_1 growth excess scale applied per rollback ("tighten").
    double lambda_tighten = 0.5;
    /// Router relaxation per RouterNoProgress recovery: overflow_penalty
    /// is scaled by this, capacity utilization factors by 1/this.
    double router_relax = 0.5;
};

/// One recovery (or degradation) event, for logs and tests.
struct RecoveryEvent {
    std::string stage;
    FaultKind kind = FaultKind::AuditViolation;
    std::string action;  ///< "rollback", "reroute", "relax-router", ...
    std::string detail;
    int iter = -1;
};

/// Aggregated over a whole pipeline run (PlaceResult::recovery).
struct RecoveryReport {
    std::vector<RecoveryEvent> events;
    int rollbacks = 0;
    /// Stages that hit their budget / exhausted retries and finished on
    /// their best snapshot or were skipped.
    int degraded_stages = 0;

    bool recovered_any() const { return !events.empty(); }
    /// Events of one kind (tests).
    int count(FaultKind k) const;
};

}  // namespace recover
}  // namespace rdp
