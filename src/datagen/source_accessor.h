// Fault-tolerant source access seam.
//
// Samplers never touch `SourceSet`/`DataSource` reads directly in degraded
// mode; they go through this layer, which wraps every source visit behind
// Result-style outcomes and adds the three production behaviours the
// paper's unreliable-source premise demands:
//
//  * retry with bounded attempts and exponential backoff (deterministic
//    jitter, drawn from the FaultModel's keyed streams), under per-draw and
//    per-session deadline budgets measured on the VirtualClock;
//  * a per-source circuit breaker (closed -> open -> half-open on a sliding
//    failure-rate window) so samplers stop hammering dead sources;
//  * corrupt-payload rejection: values the fault model marked corrupted
//    are dropped instead of bound (NaN never enters a partial aggregate).
//
// Determinism contract: `SourceAccessor` is immutable configuration, shared
// read-only across threads. All mutable state (breaker windows, the virtual
// clock, counters) lives in an `AccessSession`, and a session belongs to
// exactly ONE run of draws — one chunk of the chunk driver, or the whole
// phase of the adaptive loop. Fault decisions are keyed by (source, draw
// epoch, attempt), and epochs are global draw indices, so a chaos run is
// bit-identical across serial, call-scoped-pool and persistent-pool
// execution of any width. No wall clocks anywhere (lint rule R7).

#ifndef VASTATS_DATAGEN_SOURCE_ACCESSOR_H_
#define VASTATS_DATAGEN_SOURCE_ACCESSOR_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "datagen/component.h"
#include "datagen/fault_model.h"
#include "obs/obs.h"
#include "util/status.h"

namespace vastats {

// Bounded-retry policy for one source visit. Backoff before retry a
// (0-based) is backoff_base_ms * backoff_multiplier^a, scaled by a
// deterministic jitter in [1 - backoff_jitter, 1 + backoff_jitter].
struct RetryPolicy {
  int max_attempts = 3;
  double backoff_base_ms = 10.0;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.5;
  // Simulated-ms budget one draw may spend on accesses + backoff before it
  // stops visiting further sources (0 = unbounded). A truncated draw
  // finalizes over what it covered — degraded, not failed.
  double draw_deadline_ms = 0.0;
  // Simulated-ms budget for a whole session (one sampling stream); once
  // exhausted, remaining draws in the stream are abandoned (0 = unbounded).
  double session_deadline_ms = 0.0;

  Status Validate() const;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

std::string_view BreakerStateToString(BreakerState state);

struct CircuitBreakerOptions {
  // Sliding window of per-visit outcomes tracked per source (<= 64).
  int window = 16;
  // Outcomes required in the window before the failure rate can trip it.
  int min_samples = 4;
  // Open when failures/window_size >= this rate.
  double open_failure_rate = 0.5;
  // Simulated ms an open breaker waits before letting one half-open probe
  // visit through.
  double cooldown_ms = 200.0;
  // Consecutive half-open successes required to close again.
  int half_open_successes = 1;

  Status Validate() const;
};

// Merged access telemetry for one or more sessions. Every count is exact
// and, for a fixed seed/model/policy, bit-identical across execution
// widths (sessions merge in chunk order).
struct AccessStats {
  uint64_t visits = 0;                   // visits dispatched (excl. skips)
  uint64_t attempts = 0;                 // individual attempts incl. retries
  uint64_t retries = 0;                  // backoff-then-retry transitions
  uint64_t transient_failures = 0;       // failed attempts (incl. outages)
  uint64_t failed_visits = 0;            // visits that exhausted retries
  uint64_t breaker_open_skips = 0;       // visits skipped on an open breaker
  uint64_t corrupt_values_rejected = 0;  // payload values dropped as corrupt
  uint64_t breaker_transitions = 0;      // state-machine edges taken
  uint64_t deadline_truncated_draws = 0; // draws cut short by the budget
  double virtual_ms = 0.0;               // simulated time spent, incl. backoff
  double backoff_ms = 0.0;               // simulated time spent backing off
  // Worst breaker severity seen per source across the merged sessions:
  // 0 = closed, 1 = half-open, 2 = open. Empty until a session finishes.
  std::vector<uint8_t> breaker_severity;

  int SourcesOpen() const;      // severity == 2
  int SourcesHalfOpen() const;  // severity == 1
  void Merge(const AccessStats& other);
};

// --- Transport seam --------------------------------------------------------
//
// The simulated path decides every attempt inline from the borrowed
// FaultModel. A *transport* externalizes the attempt instead: requests
// travel to source endpoints (worker threads, socket pairs, spool files —
// see src/transport) and come back with an outcome, the transferred
// payload, and the simulated cost to charge against the deadline budgets.
// The session keeps ALL policy — retry, backoff, breakers, budgets, stats —
// and only delegates "perform one attempt", so chaos semantics are
// identical in kind on both paths, and bit-identical when the endpoint
// derives outcomes from the same keyed FaultModel.

// One (component, value) binding transferred by a transport visit, in the
// source's sorted-binding order (DataSource::SortedBindings).
struct TransportBinding {
  ComponentId component = 0;
  double value = 0.0;
};

// Outcome of one transport attempt. `payload` is borrowed from the
// transport and stays valid until its next PerformAttempt call.
struct TransportAttemptResult {
  bool failed = true;
  // Simulated cost the session charges to its VirtualClock. Model-virtual
  // transports return the FaultModel's deterministic attempt latency
  // (bit-parity with the simulated seam); wall-mapped transports return
  // measured wall blocking time scaled onto the virtual budgets.
  double virtual_ms = 0.0;
  std::span<const TransportBinding> payload;
};

// Abstract per-stream visit dispatch. One channel serves exactly ONE
// session (the same single-stream contract as AccessSession itself), so
// implementations never need to lock against their caller.
class VisitTransport {
 public:
  virtual ~VisitTransport() = default;

  // Announces the visit order the coming draw intends (`counts[i]` is the
  // component count of `order[i]`'s visit), letting pipelined
  // implementations prefetch attempt-0 requests ahead of consumption. An
  // order is a hint: sources may be skipped (breaker open) and the draw may
  // stop early (coverage complete, deadline); the transport discards
  // whatever was staged but never consumed.
  virtual void StageVisitOrder(int64_t epoch, std::span<const int> order,
                               std::span<const int> counts) = 0;

  // Performs (or awaits the prefetched) attempt `attempt` of the visit to
  // `source` in draw `epoch`, transferring `num_components` values. Blocks
  // until an outcome is available.
  virtual TransportAttemptResult PerformAttempt(int source, int64_t epoch,
                                                int attempt,
                                                int num_components) = 0;
};

class AccessSession;

// Immutable access configuration over `num_sources` sources. `model` is
// borrowed and may be null: a null model degenerates every visit to an
// instant success (the samplers bypass the seam entirely in that case, so
// the default pipeline pays nothing for this layer existing).
class SourceAccessor {
 public:
  static Result<SourceAccessor> Create(int num_sources,
                                       const FaultModel* model,
                                       RetryPolicy retry = {},
                                       CircuitBreakerOptions breaker = {});

  int num_sources() const { return num_sources_; }
  const FaultModel* model() const { return model_; }
  const RetryPolicy& retry() const { return retry_; }
  const CircuitBreakerOptions& breaker() const { return breaker_; }

  // Starts a session for one sampling stream. `metrics` (nullable,
  // borrowed) receives per-visit latency/backoff histograms and the merged
  // counters on Finish(); worker sessions write to their own registry
  // shards, so chunked streams stay contention-free. `recorder` (nullable,
  // borrowed) journals breaker state transitions, stamped with both the
  // recorder's real clock and the session's VirtualClock ms. `transport`
  // (nullable, borrowed, must outlive the session) routes every attempt
  // through an external dispatch channel instead of the inline simulation;
  // like the session itself, a channel belongs to exactly one stream.
  AccessSession StartSession(MetricsRegistry* metrics = nullptr,
                             FlightRecorder* recorder = nullptr,
                             VisitTransport* transport = nullptr) const;

 private:
  SourceAccessor(int num_sources, const FaultModel* model, RetryPolicy retry,
                 CircuitBreakerOptions breaker)
      : num_sources_(num_sources),
        model_(model),
        retry_(retry),
        breaker_(breaker) {}

  int num_sources_;
  const FaultModel* model_;  // borrowed; may be null (= no faults)
  RetryPolicy retry_;
  CircuitBreakerOptions breaker_;
};

// Mutable per-stream access state: breaker windows, the virtual clock, and
// counters. NOT thread-safe — one session per stream by construction.
class AccessSession {
 public:
  // Outcome of one source visit.
  struct VisitOutcome {
    bool ok = false;
    bool skipped_breaker_open = false;
    int attempts = 0;
  };

  // Marks the start of the draw with global index `epoch`. Every later
  // Visit/ValueCorrupted call keys its fault decisions with this epoch.
  void BeginDraw(int64_t epoch);
  // BeginDraw with a session-local auto-incremented epoch (serial streams
  // that do not know a global slot index). Returns the epoch used.
  int64_t BeginNextDraw();

  // True once the current draw spent its deadline budget — the caller
  // should stop visiting sources and finalize the partial draw.
  bool DrawDeadlineExhausted() const;
  // True once the whole session's budget is gone.
  bool SessionBudgetExhausted() const;

  // Forwards the coming draw's visit order (and per-visit component
  // counts) to the attached transport so it can prefetch; no-op on the
  // simulated path. Call after BeginDraw, before the draw's first Visit.
  void StageVisits(std::span<const int> order, std::span<const int> counts);

  // True when visits are served by an attached transport channel;
  // successful visits then expose the transferred payload.
  bool transport_attached() const { return transport_ != nullptr; }

  // Payload of the most recent successful transported visit (empty on the
  // simulated path, where callers bind from their in-memory index).
  // Invalidated by the next Visit call.
  std::span<const TransportBinding> last_payload() const {
    return last_payload_;
  }

  // One visit to `source` transferring `num_components` values: breaker
  // check, then up to retry().max_attempts fault-injected attempts with
  // backoff. Advances the virtual clock and updates the breaker window.
  VisitOutcome Visit(int source, int num_components);

  // Whether the value at query position `component_pos` of the current
  // payload arrived corrupted (caller must drop it).
  bool ValueCorrupted(int source, int component_pos);

  // Records that the current draw was cut short by the deadline budget.
  void RecordDeadlineTruncation();

  BreakerState breaker_state(int source) const {
    return breakers_[static_cast<size_t>(source)].state;
  }
  const VirtualClock& clock() const { return clock_; }
  int64_t current_epoch() const { return epoch_; }

  // Finalizes the session: snapshots per-source breaker severity into the
  // stats, flushes the counters to the metrics registry (when attached),
  // and returns the stats. Call once, after the stream's last draw.
  AccessStats Finish();

 private:
  friend class SourceAccessor;

  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    uint64_t window_bits = 0;  // 1 = failure, LSB = most recent
    int window_size = 0;
    int window_failures = 0;
    double reopen_at_ms = 0.0;  // open -> half-open probe time
    int half_open_successes = 0;
  };

  AccessSession(const SourceAccessor* config, MetricsRegistry* metrics,
                FlightRecorder* recorder, VisitTransport* transport);

  void RecordOutcome(int source, bool success);
  void PushWindow(Breaker& breaker, bool failure);
  void TransitionTo(Breaker& breaker, BreakerState next);

  const SourceAccessor* config_;
  MetricsRegistry* metrics_;  // borrowed; may be null
  FlightRecorder* recorder_ = nullptr;  // borrowed; may be null
  VisitTransport* transport_ = nullptr;  // borrowed; null = simulated path
  std::span<const TransportBinding> last_payload_;
  uint32_t transition_name_id_ = 0;     // interned when recorder_ != null
  VirtualClock clock_;
  std::vector<Breaker> breakers_;
  AccessStats stats_;
  int64_t epoch_ = -1;
  int64_t next_auto_epoch_ = 0;
  double draw_started_ms_ = 0.0;
  bool finished_ = false;
};

}  // namespace vastats

#endif  // VASTATS_DATAGEN_SOURCE_ACCESSOR_H_
