// Message tag layout of the pipeline's comm world: tag = cpi * stride + slot.
//
// Slots 0-8 are the inter-task edges of paper Fig. 4 (spatial dependencies
// only; the temporal dependencies TD_{1,3}/TD_{2,4} are realized through the
// +1 CPI tag offset on the weight edges). The elastic migration protocol
// takes slots 10 (VOTE) and 11 (VERDICT), keyed by the barrier CPI so a
// retry at a later barrier can never match a stale attempt's frames. The
// stride is the comm layer's, which buckets its retry histogram by slot.
//
// Fault plans target one edge across every CPI with the period/phase rule
// form: tag_period = comm::kTagStride, tag_phase = the slot.
#pragma once

#include "comm/world.hpp"
#include "common/types.hpp"

namespace ppstap::core {

/// The nine inter-task edges of Fig. 4, numbered by their tag slot.
/// Weight->beamform edges carry the temporal dependency (weights computed
/// from CPI i-1 are consumed by CPI i). sim.hpp maps each edge to its
/// endpoints.
enum Edge : int {
  kDopToEasyWt = 0,
  kDopToHardWt = 1,
  kDopToEasyBf = 2,
  kDopToHardBf = 3,
  kEasyWtToBf = 4,
  kHardWtToBf = 5,
  kEasyBfToPc = 6,
  kHardBfToPc = 7,
  kPcToCfar = 8,
};
inline constexpr int kNumPipelineEdges = kPcToCfar + 1;

inline constexpr int kVoteSlot = 10;
inline constexpr int kVerdictSlot = 11;

static_assert(kVerdictSlot < comm::kTagStride);

constexpr int tag_for(index_t cpi, int slot) {
  return static_cast<int>(cpi) * comm::kTagStride + slot;
}

}  // namespace ppstap::core
