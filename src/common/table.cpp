#include "common/table.hpp"

#include <cstdio>
#include <sstream>

#include "common/assert.hpp"

namespace ncc {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  NCC_ASSERT(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::num(uint64_t v) { return std::to_string(v); }

std::string Table::to_string() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c];
      os << std::string(widths[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  emit_row(headers_);
  os << '|';
  for (size_t c = 0; c < headers_.size(); ++c) os << std::string(widths[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print(const std::string& caption) const {
  if (!caption.empty()) std::printf("%s\n", caption.c_str());
  std::printf("%s\n", to_string().c_str());
}

}  // namespace ncc
