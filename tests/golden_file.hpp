// Shared test helpers for committed files: the shipped examples/ files, the
// byte comparison against goldens under tests/golden/ (PDC_UPDATE_GOLDEN=1
// rewrites the file instead) and the one-line digest of a dPerf rank-trace
// set that the trace goldens pin.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dperf/trace.hpp"
#include "ir/pipeline.hpp"
#include "support/env.hpp"
#include "support/file.hpp"

namespace pdc {

inline std::string golden_path(const char* name) {
  return std::string(PDC_TEST_DATA_DIR) + "/golden/" + name;
}

/// A shipped file under examples/, e.g. "scenarios/churn_smoke.scn"; "" when
/// it cannot be opened.
inline std::string read_example(const std::string& relative) {
  return read_file(std::string(PDC_TEST_DATA_DIR) + "/../examples/" + relative).value_or("");
}

inline void check_against_golden(const std::string& produced, const char* name) {
  const std::string path = golden_path(name);
  if (env_flag("PDC_UPDATE_GOLDEN")) {
    write_file_atomic(path, produced);
    GTEST_SKIP() << "golden updated: " << path;
  }
  const std::string expected = read_file(path).value_or("");
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " (run with PDC_UPDATE_GOLDEN=1 to create it)";
  EXPECT_EQ(produced, expected) << "serialized " << name
                                << " drifted from the committed golden; if the schema "
                                   "change is intentional, regenerate with "
                                   "PDC_UPDATE_GOLDEN=1 and review the diff";
}

/// FNV-1a 64 over `bytes`.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// "trace <level> ranks=<n> events=<n> compute_ns=<n> fnv=<hex>\n": the event
/// count, the compute ns and a digest of every rank's `save_trace` text.
inline std::string trace_digest_line(ir::OptLevel level, int ranks,
                                     const std::vector<dperf::Trace>& traces) {
  std::string bytes;
  std::uint64_t events = 0, compute_ns = 0;
  for (const dperf::Trace& t : traces) {
    bytes += dperf::save_trace(t);
    events += t.events.size();
    compute_ns += t.total_compute_ns();
  }
  char line[256];
  std::snprintf(line, sizeof line, "trace %s ranks=%d events=%llu compute_ns=%llu fnv=%016llx\n",
                ir::opt_level_name(level), ranks, static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(compute_ns),
                static_cast<unsigned long long>(fnv1a(bytes)));
  return line;
}

}  // namespace pdc
