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
//  * Spare pool — the comm world's last `spares` ranks stand by, each able
//    to assume any role. While one is idle every topology rank is
//    recoverable. Weight-task ranks checkpoint their adaptive state (easy
//    training history / hard triangular factors, via the weight-computer
//    save/restore) after every CPI. An idle member blocks until a rank
//    dies (or the last CFAR rank releases the pool at end of stream),
//    claims it, assumes its identity and mailbox, and re-enters the
//    pipeline like any rank: a weight role restores its checkpoint and
//    resumes at the CPI it names, a stateless role resumes at the dead
//    rank's frozen progress. The measured recovery stall is the empirical
//    counterpart of the machine model's ReallocationPlan::migration_stall.
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

  bool any() const { return shedding || spares > 0 || heal_shrink; }
};

}  // namespace ppstap::core
