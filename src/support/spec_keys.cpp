#include "support/spec_keys.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace pdc::keys {

namespace {

/// The one checked number parser: std::from_chars over the whole token (no
/// sign for unsigned types, no leading '+' or whitespace, no locale, and
/// overflow reported, not wrapped).
template <class T>
T parse_number(std::string_view text, std::string_view key) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc::result_out_of_range)
    throw std::invalid_argument(std::string(key) + " '" + std::string(text) +
                                "' out of range");
  if (ec != std::errc{} || end != text.data() + text.size())
    throw std::invalid_argument("bad " + std::string(key) + " '" + std::string(text) + "'");
  return v;
}

}  // namespace

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string tok;
  for (char c : line) {
    if (c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!tok.empty()) out.push_back(std::move(tok)), tok.clear();
    } else {
      tok += c;
    }
  }
  if (!tok.empty()) out.push_back(std::move(tok));
  return out;
}

int Int::parse(std::string_view text, std::string_view key) const {
  const int v = parse_number<int>(text, key);
  if (v >= min && v <= max) return v;
  if (max == std::numeric_limits<int>::max())
    throw std::invalid_argument(std::string(key) + " must be >= " + std::to_string(min));
  throw std::invalid_argument(std::string(key) + " must be in [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]");
}

std::uint64_t U64::parse(std::string_view text, std::string_view key) const {
  return parse_number<std::uint64_t>(text, key);
}

double Real::parse(std::string_view text, std::string_view key) const {
  const double v = parse_number<double>(text, key);
  if (!std::isfinite(v))
    throw std::invalid_argument("bad " + std::string(key) + " '" + std::string(text) + "'");
  if ((above_min ? v > min : v >= min) && v <= max) return v;
  throw std::invalid_argument(std::string(key) + " must be in " + (above_min ? "(" : "[") +
                              format_shortest(min) + ", " + format_shortest(max) + "]");
}

double Unit::parse(std::string_view text, std::string_view key) const {
  const char* end = text.data() + text.size();
  double v = 0;
  const auto [suffix, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc{} && std::isfinite(v))
    for (const auto& [name, scale] : suffixes)
      if (std::string_view(suffix, end) == name) return v * scale;
  throw std::invalid_argument("bad " + std::string(key) + " value '" + std::string(text) + "'");
}

std::vector<std::pair<std::string, std::string>> split_pairs(
    std::span<const std::string> tokens) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& tok : tokens) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("expected key=value, got '" + tok + "'");
    std::string key = tok.substr(0, eq);
    for (const auto& seen : out)
      if (seen.first == key) throw std::invalid_argument("duplicate key '" + key + "'");
    out.emplace_back(std::move(key), tok.substr(eq + 1));
  }
  return out;
}

}  // namespace pdc::keys
