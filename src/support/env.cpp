#include "support/env.hpp"

#include <cstdlib>
#include <stdexcept>

#include "support/spec_keys.hpp"

namespace pdc {

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return v[0] != '\0' && v[0] != '0';
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  try {
    return keys::Int{}.parse(v, name);
  } catch (const std::invalid_argument&) {
    return fallback;
  }
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return v;
}

}  // namespace pdc
