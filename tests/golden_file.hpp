// Shared test helper for committed golden files under tests/golden/: the
// byte comparison (PDC_UPDATE_GOLDEN=1 rewrites the file instead) and the
// one-line digest of a dPerf rank-trace set that the trace goldens pin.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dperf/trace.hpp"
#include "ir/pipeline.hpp"
#include "support/env.hpp"

namespace pdc {

inline std::string golden_path(const char* name) {
  return std::string(PDC_TEST_DATA_DIR) + "/golden/" + name;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline void check_against_golden(const std::string& produced, const char* name) {
  const std::string path = golden_path(name);
  if (env_flag("PDC_UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced;
    GTEST_SKIP() << "golden updated: " << path;
  }
  const std::string expected = read_file(path);
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
