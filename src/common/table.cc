#include "common/table.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace carf
{

Table::Table(std::string title) : title_(std::move(title))
{
}

void
Table::setColumns(std::vector<std::string> headers)
{
    headers_ = std::move(headers);
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("Table '%s': row with %zu cells, expected %zu",
              title_.c_str(), cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

std::string
Table::pct(double fraction, int precision)
{
    return num(fraction * 100.0, precision) + "%";
}

std::string
Table::intNum(long long v)
{
    return std::to_string(v);
}

const std::string &
Table::cell(size_t row, size_t col) const
{
    return rows_.at(row).at(col);
}

const std::string &
Table::header(size_t col) const
{
    return headers_.at(col);
}

std::string
Table::render() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream os;
    if (!title_.empty())
        os << "== " << title_ << " ==\n";

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c ? "  " : "");
            os << row[c];
            os << std::string(widths[c] - row[c].size(), ' ');
        }
        os << '\n';
    };

    emit_row(headers_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
    return os.str();
}

} // namespace carf
