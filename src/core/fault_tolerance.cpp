#include "core/fault_tolerance.hpp"

#include "common/env.hpp"

namespace ppstap::core {

FaultToleranceConfig FaultToleranceConfig::from_env() {
  FaultToleranceConfig cfg;
  // 0 is accepted and means "leave shedding off" so scripted sweeps can
  // export the variable unconditionally.
  if (auto d = parse_env_double("PPSTAP_FAULT_DEADLINE", 0.0, 1e6);
      d && *d > 0.0) {
    cfg.shedding = true;
    cfg.cpi_deadline_seconds = *d;
  }
  // 0 is accepted (explicitly no pool) so sweeps can export unconditionally.
  if (auto n = parse_env_int("PPSTAP_SPARES", 0, 64))
    cfg.spares = static_cast<int>(*n);
  if (auto f = parse_env_flag("PPSTAP_HEAL_SHRINK")) cfg.heal_shrink = *f;
  return cfg;
}

}  // namespace ppstap::core
