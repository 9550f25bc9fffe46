// Tabular output for the benchmark harness: every paper table/figure bench
// prints its rows through TableWriter so the console rendering and the CSV
// dump stay in sync.

#ifndef ISA_COMMON_TABLE_WRITER_H_
#define ISA_COMMON_TABLE_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace isa {

/// Collects rows of string cells and renders them as an aligned text table,
/// a CSV document, or GitHub-flavoured Markdown.
class TableWriter {
 public:
  /// Creates a table with the given column headers.
  explicit TableWriter(std::vector<std::string> headers);

  /// Appends a row; missing trailing cells render empty, extra cells are an
  /// InvalidArgument error.
  Status AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` decimals, integers
  /// verbatim.
  void AddCell(std::string value);
  void AddCell(double value, int precision = 2);
  void AddCell(int64_t value);
  void AddCell(uint64_t value);
  /// Terminates the row started by AddCell calls.
  Status EndRow();

  size_t row_count() const { return rows_.size(); }

  /// Space-padded, pipe-separated console rendering.
  std::string ToText() const;
  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  std::string ToCsv() const;
  /// GitHub-flavoured Markdown.
  std::string ToMarkdown() const;

  /// Writes ToText() to `os` followed by a newline.
  void Print(std::ostream& os) const;

  /// Writes ToCsv() to `path`.
  Status WriteCsvFile(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
};

}  // namespace isa

#endif  // ISA_COMMON_TABLE_WRITER_H_
