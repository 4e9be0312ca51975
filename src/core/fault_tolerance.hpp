// Fault-tolerance policies for the pipelined STAP runtime.
//
// The paper's target is a radar flight processor: a real-time system that
// must keep streaming CPIs when a node stalls or dies, not abort. Three
// policies hang off ParallelStapPipeline (all default-off; the fault-free
// path computes exactly what the plain pipeline computes):
//
//  * Deadline-aware CPI shedding — a task that cannot assemble CPI i's
//    inputs within `cpi_deadline_seconds` emits a `dropped` marker
//    downstream instead of stalling the stream; the CFAR sink records the
//    CPI as shed. Late frames for a shed CPI are discarded on arrival.
//
//  * Spare pool — the world gets `spares` standby ranks, each able to
//    assume any role. Weight-task ranks checkpoint their adaptive state
//    (easy training history / hard triangular factors, via the
//    weight-computer save/restore) after every CPI; a pool member claims a
//    dead rank, restores that state (or, for a stateless task, the
//    topology role), assumes the identity and mailbox, and resumes the
//    stream. The measured recovery stall is the empirical counterpart of
//    the machine model's ReallocationPlan::migration_stall.
//
//  * Shrink-to-survivors — with the pool exhausted, a dead rank's group is
//    re-planned across the survivors by the elastic engine.
//
// Every shed CPI (with its origin), retransmission, injected fault and
// recovery (with its MTTR) is a record in the run's event log (events.hpp).
#pragma once


namespace ppstap::core {

struct FaultToleranceConfig {
  /// Deadline-aware CPI shedding (policy (a)).
  bool shedding = false;
  /// Real-time budget for assembling one CPI's inputs at one task, counted
  /// from the start of that task's receive phase.
  double cpi_deadline_seconds = 0.25;

  /// Spare pool size (PR 8): N standby ranks, each able to assume *any*
  /// role. Weight ranks resume from their per-CPI checkpoints; the
  /// stateless tasks (Doppler, beamform, PC, CFAR) resume from the
  /// topology epoch, with any half-consumed in-flight CPI shed by the
  /// deadline machinery (so mid-CPI stateless recovery wants `shedding`
  /// on). 0 means no pool.
  int spares = 0;
  /// When the pool is exhausted (or empty) and a rank of a migratable
  /// group dies, let the elastic engine shrink the group to the survivors
  /// under a new topology epoch instead of recording an uncovered failure.
  bool heal_shrink = false;
  /// How often the idle spare polls for deaths (and for stream completion).
  double death_poll_seconds = 0.002;

  bool any() const { return shedding || spares > 0 || heal_shrink; }

  /// Read the PPSTAP_FAULT_* / PPSTAP_SPARES / PPSTAP_HEAL* environment
  /// knobs (see README):
  ///   PPSTAP_FAULT_DEADLINE  seconds; > 0 enables shedding with that budget
  ///   PPSTAP_SPARES          spare-pool size
  ///   PPSTAP_HEAL_SHRINK     nonzero enables shrink-to-survivors
  ///   PPSTAP_FAULT_POLL      seconds; overrides death_poll_seconds
  static FaultToleranceConfig from_env();
};

}  // namespace ppstap::core
