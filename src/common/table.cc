#include "common/table.hh"

#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace rapid {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    rapid_assert(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    rapid_assert(cells.size() == headers_.size(),
                 "row width ", cells.size(), " != header width ",
                 headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::str() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream oss;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            oss << row[c];
            if (c + 1 < row.size())
                oss << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        oss << '\n';
    };

    emit_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    oss << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
    return oss.str();
}

void
Table::print() const
{
    std::fputs(str().c_str(), stdout);
}

std::string
Table::fmt(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string
Table::pct(uint64_t part, uint64_t whole, int digits)
{
    if (whole == 0)
        return "-";
    return fmt(100.0 * double(part) / double(whole), digits) + "%";
}

} // namespace rapid
