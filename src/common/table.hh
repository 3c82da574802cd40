/**
 * @file
 * Plain-text table formatting used by the benchmark harnesses to print
 * paper-style result tables.
 */

#ifndef RAPID_COMMON_TABLE_HH
#define RAPID_COMMON_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rapid {

/**
 * Accumulates rows of string cells and renders them as an aligned
 * ASCII table with a header rule.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a fully formed row; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Render the table to a string (trailing newline included). */
    std::string str() const;

    /** Render and write to stdout. */
    void print() const;

    size_t numRows() const { return rows_.size(); }

    /** Format a double with @p digits decimal places. */
    static std::string fmt(double value, int digits = 2);

    /** @p part / @p whole as a percentage with @p digits decimal
     *  places and a trailing '%'; "-" when @p whole is 0. */
    static std::string pct(uint64_t part, uint64_t whole, int digits = 1);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace rapid

#endif // RAPID_COMMON_TABLE_HH
