#include "util/table.hh"

#include <algorithm>
#include <cstdio>

#include "util/format.hh"

#include "util/logging.hh"

namespace xbsp
{

Table::Table(std::string caption, std::vector<std::string> columns)
    : title(std::move(caption)), headers(std::move(columns))
{
    if (headers.empty())
        panic("Table '{}' created with no columns", title);
}

void
Table::startRow()
{
    if (!rows.empty() && rows.back().size() != headers.size()) {
        panic("Table '{}': previous row has {} cells, expected {}",
              title, rows.back().size(), headers.size());
    }
    rows.emplace_back();
}

void
Table::ensureOpenRow()
{
    if (rows.empty() || rows.back().size() >= headers.size())
        panic("Table '{}': addCell without startRow or row overflow",
              title);
}

void
Table::addCell(std::string value)
{
    ensureOpenRow();
    rows.back().push_back(std::move(value));
}

void
Table::addNumber(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    addCell(buf);
}

void
Table::addInteger(long long value)
{
    addCell(xbsp::format("{}", value));
}

void
Table::addPercent(double fraction, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals,
                  fraction * 100.0);
    addCell(buf);
}

const std::string&
Table::cell(std::size_t row, std::size_t col) const
{
    if (row >= rows.size() || col >= rows[row].size())
        panic("Table '{}': cell ({}, {}) out of range", title, row, col);
    return rows[row][col];
}

void
Table::print(std::ostream& os) const
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    os << "== " << title << " ==\n";
    auto emitRow = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < headers.size(); ++c) {
            const std::string& v = c < cells.size() ? cells[c]
                                                    : std::string();
            os << (c ? "  " : "");
            os << v;
            for (std::size_t pad = v.size(); pad < widths[c]; ++pad)
                os << ' ';
        }
        os << '\n';
    };
    emitRow(headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c ? 2 : 0);
    for (std::size_t i = 0; i < total; ++i)
        os << '-';
    os << '\n';
    for (const auto& row : rows)
        emitRow(row);
}

} // namespace xbsp
