/**
 * @file
 * ASCII table rendering for the experiment harness.  Every figure
 * and table of a report prints through this class, so all output
 * shares one format and can be parsed back from logs.
 */

#ifndef XBSP_UTIL_TABLE_HH
#define XBSP_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace xbsp
{

/**
 * A rectangular table of strings with named columns.  Cells are added
 * row-major; addCell() with a double applies fixed formatting.
 */
class Table
{
  public:
    /** Create a table with a caption and column headers. */
    Table(std::string caption, std::vector<std::string> columns);

    /** Begin a new (empty) row. */
    void startRow();

    /** Append a string cell to the current row. */
    void addCell(std::string value);

    /** Append a numeric cell with the given decimal places. */
    void addNumber(double value, int decimals = 3);

    /** Append an integer cell. */
    void addInteger(long long value);

    /** Append a percentage cell, e.g. 0.123 -> "12.3%". */
    void addPercent(double fraction, int decimals = 1);

    /** Number of complete data rows. */
    std::size_t rowCount() const { return rows.size(); }

    /** Number of columns. */
    std::size_t columnCount() const { return headers.size(); }

    /** Read a cell back (row-major), for tests and post-processing. */
    const std::string& cell(std::size_t row, std::size_t col) const;

    /** The caption supplied at construction. */
    const std::string& caption() const { return title; }

    /** Render the table with aligned columns and a rule under headers. */
    void print(std::ostream& os) const;

  private:
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;

    void ensureOpenRow();
};

} // namespace xbsp

#endif // XBSP_UTIL_TABLE_HH
