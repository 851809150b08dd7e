#pragma once
// CSV writer — RFC-4180 quoting in one place. Used by
// rct::SessionProfile::write_csv.

#include <cstdint>
#include <ostream>
#include <string_view>

namespace impeccable::obs {

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  /// Quoted iff the cell contains a comma, quote, or newline.
  CsvWriter& cell(std::string_view v);
  CsvWriter& cell(const char* v) { return cell(std::string_view(v)); }
  CsvWriter& cell(double v);
  CsvWriter& cell(std::int64_t v);
  CsvWriter& cell(std::uint64_t v);
  CsvWriter& cell(int v) { return cell(static_cast<std::int64_t>(v)); }

  void end_row();

 private:
  void separate();
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace impeccable::obs
