#include "common/table_writer.h"

#include <algorithm>
#include <fstream>

#include "common/strings.h"

namespace isa {

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Status TableWriter::AddRow(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu cells but table has %zu columns", cells.size(),
                  headers_.size()));
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return Status::OK();
}

void TableWriter::AddCell(std::string value) {
  pending_.push_back(std::move(value));
}

void TableWriter::AddCell(double value, int precision) {
  pending_.push_back(FormatDouble(value, precision));
}

void TableWriter::AddCell(int64_t value) {
  pending_.push_back(StrFormat("%lld", (long long)value));
}

void TableWriter::AddCell(uint64_t value) {
  pending_.push_back(StrFormat("%llu", (unsigned long long)value));
}

Status TableWriter::EndRow() {
  std::vector<std::string> row;
  row.swap(pending_);
  return AddRow(std::move(row));
}

namespace {

std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string TableWriter::ToText() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += cell;
      line.append(width[c] - cell.size(), ' ');
      if (c + 1 < headers_.size()) line += "  ";
    }
    // Trim trailing padding for clean diffs.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  std::string rule;
  for (size_t c = 0; c < headers_.size(); ++c) {
    rule.append(width[c], '-');
    if (c + 1 < headers_.size()) rule += "  ";
  }
  out += rule + '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string TableWriter::ToCsv() const {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) out += ',';
      out += CsvEscape(c < row.size() ? row[c] : std::string());
    }
    out += '\n';
  };
  append_row(headers_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

void TableWriter::Print(std::ostream& os) const { os << ToText() << "\n"; }

Status TableWriter::WriteCsvFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open for write: " + path);
  f << ToCsv();
  if (!f) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace isa
