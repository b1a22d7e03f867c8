// Plain-text table printer for the benchmark harness: every bench binary
// prints the rows/series the corresponding paper table or theorem describes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ncc {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string num(uint64_t v);

  /// Render with aligned columns and a header separator.
  std::string to_string() const;

  /// Print to stdout with an optional caption line.
  void print(const std::string& caption = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ncc
