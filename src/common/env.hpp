// Hardened PPSTAP_* environment parsing.
//
// Only the process-wide knobs live in the environment: kernel dispatch
// (PPSTAP_SIMD, PPSTAP_KERNEL_THREADS) and tracing (PPSTAP_TRACE*,
// PPSTAP_FLIGHT_*). A pipeline run is configured through its setters
// alone. Each knob goes through these helpers instead of atoi: a garbage
// or out-of-range value throws ppstap::Error naming the variable and the
// offending text, instead of silently parsing to zero and disabling (or
// mis-tuning) the feature the operator asked for. An unset or empty
// variable is "not configured" (nullopt), never an error.
#pragma once

#include <limits>
#include <optional>
#include <string>

#include "common/types.hpp"

namespace ppstap {

/// Parse env var `name` as a (decimal) integer in [lo, hi]. Returns nullopt
/// when unset or empty; throws Error on garbage or out-of-range input.
std::optional<long long> parse_env_int(
    const char* name,
    long long lo = std::numeric_limits<long long>::min(),
    long long hi = std::numeric_limits<long long>::max());

/// Parse env var `name` as a boolean flag: 1/0, true/false, yes/no, on/off
/// (case-insensitive). Returns nullopt when unset or empty; throws Error on
/// anything else.
std::optional<bool> parse_env_flag(const char* name);

/// Parse env var `name` against a fixed set of case-insensitive choices
/// (e.g. {"throttle", "reject"}); returns the matched index. nullopt when
/// unset or empty; throws Error listing the choices otherwise.
std::optional<size_t> parse_env_choice(
    const char* name, std::initializer_list<const char*> choices);

}  // namespace ppstap
