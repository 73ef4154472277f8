// Plain-text table rendering: the paper-table and ablation benches print
// rows in the same layout as the paper's figures.
#pragma once

#include <string>
#include <vector>

namespace pdc {

/// Accumulates rows of string cells and renders an aligned ASCII table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);

  /// Renders with column alignment and a header separator.
  std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pdc
