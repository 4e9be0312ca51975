// Algorithm-based fault tolerance (ABFT) configuration and accounting.
//
// PR 2/3 protect the pipeline against *transport* faults and *load*; this
// layer closes the remaining gap — silent data corruption inside a compute
// kernel. Each hot kernel carries a cheap mathematical invariant of the
// transform it implements (Parseval energy for the windowed Doppler FFTs,
// Huang–Abraham column checksums for the beamforming matmuls, column-norm
// residuals for the weight-path QR, a matched-filter energy bound for pulse
// compression, exact power-lookup equality for CFAR detections), and
// src/core/pipeline.cpp wires the detect → recompute-once → escalate policy
// around them. The per-CPI digest that rides the redistribution frames uses
// the shared checksum in common/checksum.hpp so the sink can attribute a
// mismatch to the producing task.
#pragma once

#include <cstdint>
#include <span>

namespace ppstap::core {

/// Runtime switch for the integrity layer. Off by default: the invariants
/// cost a few percent of kernel time and real deployments opt in.
struct IntegrityConfig {
  /// Enables kernel invariants, the per-CPI digest on every redistribution
  /// edge, and the recovery policy.
  bool enabled = false;
};

/// Deterministically flip one bit of one element of a float buffer — the
/// compute-stage analogue of the transport corruptor in comm/world.cpp.
/// Bit 30 is the top exponent bit: flipping it multiplies the magnitude by
/// ~2^128 one way or the other, the classic "silent but catastrophic" SEU.
/// `salt` selects the victim element; no-op on an empty span.
void flip_float_bit(std::span<float> data, int bit, std::uint64_t salt);

}  // namespace ppstap::core
