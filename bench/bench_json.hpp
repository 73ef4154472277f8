// What the micro bench drivers share: their one argument, the CPU count
// every BENCH_*.json records, and the one way a driver writes that file.
#pragma once

#include <sched.h>

#include <cstdio>
#include <exception>

#include "support/file.hpp"
#include "support/json.hpp"

namespace pdc::bench {

/// The CPUs this process may run on, counted as e2ebench/run.py counts them.
inline int nproc() {
  cpu_set_t set;
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
}

/// The driver's one argument, the output path, or `fallback` when none is
/// given. These drivers take no option: a second argument or one that
/// starts with '-' prints the usage and returns nullptr, and the driver
/// exits 2 instead of writing to a file named after the option.
inline const char* out_path(int argc, char** argv, const char* fallback) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [out.json]  (PDC_QUICK=1 for the quick sizing)\n",
                 argv[0]);
    return nullptr;
  }
  return argc == 2 ? argv[1] : fallback;
}

/// Writes the finished document to `path` through write_file_atomic. On
/// failure prints "cannot write <path>" and returns false (the driver then
/// exits 1).
inline bool write_json(const char* path, const JsonWriter& w) {
  try {
    write_file_atomic(path, w.str() + "\n");
  } catch (const std::exception&) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace pdc::bench
