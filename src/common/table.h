/**
 * @file
 * Lightweight text table emitter used by the bench harnesses to
 * print the rows/series each paper table and figure reports.
 */
#ifndef SVARD_COMMON_TABLE_H
#define SVARD_COMMON_TABLE_H

#include <cstdio>
#include <string>
#include <vector>

namespace svard {

/**
 * A named table of string cells. Benches fill one Table per figure
 * series and print it aligned to stdout.
 */
class Table
{
  public:
    Table(std::string title, std::vector<std::string> headers);

    /** Append a row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Print the table aligned to the given stream (default stdout). */
    void print(std::FILE *out = stdout) const;

    size_t rows() const { return rows_.size(); }

    /** Format helper: fixed-precision double. */
    static std::string fmt(double v, int precision = 4);

    /** Format helper: integer. */
    static std::string fmt(int64_t v);

    /** Format helper: hammer counts as the paper prints them (K = 2^10). */
    static std::string fmtHc(int64_t hc);

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Read an environment knob with a default (bench scaling); unset or
 *  empty gives `fallback`.
 *  @throws std::invalid_argument naming the variable when the value is
 *          not a complete base-10 integer within int64_t. */
int64_t envInt(const char *name, int64_t fallback);

/** True when SVARD_FULL=1 requests paper-scale experiment sweeps. */
bool fullScale();

} // namespace svard

#endif // SVARD_COMMON_TABLE_H
