/**
 * @file
 * ASCII table rendering used by the benchmark harnesses to print
 * the paper's tables and figure series in a uniform format.
 */

#ifndef CARF_COMMON_TABLE_HH
#define CARF_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace carf
{

/**
 * A rectangular table of string cells with a header row. Cells are
 * typically produced via the addRow(...) overloads that format
 * numeric values; render() aligns columns for terminal output.
 */
class Table
{
  public:
    explicit Table(std::string title = "");

    void setColumns(std::vector<std::string> headers);
    void addRow(std::vector<std::string> cells);

    /** Format helpers for cell construction. */
    static std::string num(double v, int precision = 2);
    static std::string pct(double fraction, int precision = 1);
    static std::string intNum(long long v);

    std::string render() const;

    size_t rowCount() const { return rows_.size(); }
    size_t columnCount() const { return headers_.size(); }
    const std::string &cell(size_t row, size_t col) const;
    const std::string &header(size_t col) const;
    const std::string &title() const { return title_; }

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace carf

#endif // CARF_COMMON_TABLE_HH
