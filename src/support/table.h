/**
 * @file
 * Fixed-width text table rendering used by the experiment benches to print
 * paper-style tables (e.g. Table I) and figure data series.
 */
#ifndef GSOPT_SUPPORT_TABLE_H
#define GSOPT_SUPPORT_TABLE_H

#include <string>
#include <vector>

namespace gsopt {

/**
 * A simple text table: a header row plus data rows, rendered with columns
 * padded to the widest cell.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row; it may have fewer cells than the header. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format doubles with fixed precision. */
    static std::string num(double v, int precision = 2);

    /** Convenience: format a percentage like "+4.25%". */
    static std::string pct(double fraction, int precision = 2);

    /** Render with column separators and a rule under the header. */
    std::string str() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace gsopt

#endif // GSOPT_SUPPORT_TABLE_H
