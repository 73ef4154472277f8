// Process-environment configuration knobs, in one place instead of scattered
// std::getenv calls. Every knob the project reads is documented in
// ROADMAP.md ("Environment knobs").
#pragma once

#include <string>

namespace pdc {

/// True when `name` is set to anything but "" or a string starting with '0'
/// (so PDC_QUICK=1, PDC_QUICK=yes enable; PDC_QUICK=0 and unset disable).
bool env_flag(const char* name, bool fallback = false);

/// Integer value of `name`, or `fallback` when unset, not a base-10 number
/// or outside the range of int (never a wrapped value).
int env_int(const char* name, int fallback);

/// String value of `name`, or `fallback` when unset or empty.
std::string env_str(const char* name, const std::string& fallback = {});

}  // namespace pdc
