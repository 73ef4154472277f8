// Whole-file I/O: one reader and one crash-safe writer for every caller
// (campaign records and reports, the serve spool, spec and platform files,
// goldens and the BENCH_*.json outputs).
#pragma once

#include <filesystem>
#include <optional>
#include <string>

namespace pdc {

/// The bytes of `path`, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::filesystem::path& path);

/// Writes `text` to `path` + ".tmp" and renames it over `path`, so a killed
/// writer never leaves a truncated file that a reader would trust. Throws
/// std::runtime_error when the temp file cannot be opened or the write is
/// short.
void write_file_atomic(const std::filesystem::path& path, const std::string& text);

}  // namespace pdc
