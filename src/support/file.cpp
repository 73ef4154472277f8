#include "support/file.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pdc {

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_file_atomic(const std::filesystem::path& path, const std::string& text) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write '" + tmp.string() + "'");
    out << text;
    if (!out) throw std::runtime_error("short write to '" + tmp.string() + "'");
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace pdc
