// The key table behind the spec text formats (.scn / .cmp lines). Every
// scalar keyword is one Row: its key, the field it sets, the value codec
// that parses and renders that field, and when the canonical text shows
// it. The scenario, platform and churn parsers and renderers walk the same
// rows, so a keyword's spelling, units, range check and render order live
// in one place.
//
// Errors are std::invalid_argument; the format parsers own line numbers
// and wrap them into their own diagnostics.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace pdc::keys {

/// Splits one spec line into whitespace-separated tokens; '#' starts a
/// comment that runs to the end of the line.
std::vector<std::string> tokenize(const std::string& line);

// --- value codecs: parse(text, key) -> value, render(value) -> text ---------
// The numeric ones share one checked parser: the whole token must be a
// base-10 number; trailing junk, overflow and a sign on an unsigned value
// are errors naming `key`, never a wrap.

/// An int in [min, max].
struct Int {
  int min = std::numeric_limits<int>::min();
  int max = std::numeric_limits<int>::max();
  int parse(std::string_view text, std::string_view key) const;
  std::string render(int v) const { return std::to_string(v); }
};

struct U64 {
  std::uint64_t parse(std::string_view text, std::string_view key) const;
  std::string render(std::uint64_t v) const { return std::to_string(v); }
};

/// A finite double in [min, max], or (min, max] with `above_min`.
struct Real {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool above_min = false;
  double parse(std::string_view text, std::string_view key) const;
  std::string render(double v) const { return format_shortest(v); }
};

/// A finite number with a unit suffix ("3GHz", "1Gbps", "100us"); each
/// suffix scales to base units. The last suffix renders, as the shortest
/// round-tripping decimal.
struct Unit {
  std::span<const std::pair<const char*, double>> suffixes;
  double parse(std::string_view text, std::string_view key) const;
  std::string render(double v) const {
    return format_shortest(v / suffixes.back().second) + suffixes.back().first;
  }
};

/// An enum (or bool) spelled through its one name table.
template <class E>
struct Names {
  std::span<const std::pair<E, const char*>> table;

  E parse(std::string_view text, std::string_view key) const {
    std::string choices;
    for (const auto& [value, name] : table) {
      if (text == name) return value;
      if (!choices.empty()) choices += '|';
      choices += name;
    }
    throw std::invalid_argument("unknown " + std::string(key) + " '" + std::string(text) +
                                "' (" + choices + ")");
  }
  const char* name(E e) const {
    for (const auto& [value, name] : table)
      if (value == e) return name;
    return "?";
  }
  std::string render(E e) const { return name(e); }
};

struct Text {
  std::string parse(std::string_view text, std::string_view) const {
    return std::string(text);
  }
  std::string render(const std::string& v) const { return v; }
};

// --- rows -------------------------------------------------------------------

/// When the canonical text shows a row: always, only when the value differs
/// from a default-constructed struct's (keeps older files' text stable), or
/// never (execution knobs that are not part of a run's identity).
enum class Show { Always, NonDefault, Never };

template <class S>
struct Row {
  std::string_view key;
  /// Sets the field from the value tokens after the key.
  std::function<void(S&, std::span<const std::string>)> parse;
  std::function<std::string(const S&)> render;
  Show show = Show::Always;
};

/// The row of one single-valued field.
template <class S, class T, class Codec>
Row<S> field(std::string_view key, T S::*member, Codec codec, Show show = Show::Always) {
  return {key,
          [=](S& s, std::span<const std::string> values) {
            if (values.size() != 1)
              throw std::invalid_argument("expected: " + std::string(key) + " <value>");
            s.*member = codec.parse(values[0], key);
          },
          [=](const S& s) { return codec.render(s.*member); }, show};
}

/// The row named `key`; throws "unknown <what> '<key>'" when there is none.
template <class S>
const Row<S>& row(const std::vector<Row<S>>& rows, std::string_view key,
                  std::string_view what) {
  for (const Row<S>& r : rows)
    if (r.key == key) return r;
  throw std::invalid_argument("unknown " + std::string(what) + " '" + std::string(key) + "'");
}

/// Appends `<before><key><sep><value><after>` for every row its Show
/// policy admits, in row order.
template <class S>
void render(std::string& out, const std::vector<Row<S>>& rows, const S& s,
            std::string_view before, char sep, std::string_view after) {
  static const S fresh{};
  for (const Row<S>& r : rows) {
    if (r.show == Show::Never) continue;
    std::string value = r.render(s);
    if (r.show == Show::NonDefault && value == r.render(fresh)) continue;
    out.append(before).append(r.key).append(1, sep).append(value).append(after);
  }
}

/// Splits `key=value` tokens, rejecting a token without a key and a key
/// given twice (a repeated key would otherwise silently last-win).
std::vector<std::pair<std::string, std::string>> split_pairs(
    std::span<const std::string> tokens);

}  // namespace pdc::keys
