#include "common/table.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <stdexcept>

#include "common/log.h"

namespace svard {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers))
{
    SVARD_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    SVARD_ASSERT(cells.size() == headers_.size(),
                 "row width mismatch in table " + title_);
    rows_.push_back(std::move(cells));
}

void
Table::print(std::FILE *out) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::fprintf(out, "== %s ==\n", title_.c_str());
    auto print_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c)
            std::fprintf(out, "%-*s%s", static_cast<int>(widths[c]),
                         row[c].c_str(),
                         c + 1 == row.size() ? "\n" : "  ");
    };
    print_row(headers_);
    std::string rule;
    for (size_t c = 0; c < widths.size(); ++c) {
        rule.append(widths[c], '-');
        if (c + 1 != widths.size())
            rule.append(2, '-');
    }
    std::fprintf(out, "%s\n", rule.c_str());
    for (const auto &row : rows_)
        print_row(row);
}

std::string
Table::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::fmt(int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    return buf;
}

std::string
Table::fmtHc(int64_t hc)
{
    // The paper prints hammer counts with K = 2^10 (footnote 7).
    if (hc % 1024 == 0 && hc != 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRId64 "K", hc / 1024);
        return buf;
    }
    return fmt(hc);
}

int64_t
envInt(const char *name, int64_t fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    // A typoed knob must not silently become 0 (or saturate): the
    // whole value has to be one in-range base-10 integer.
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(raw, &end, 10);
    if (std::isspace(static_cast<unsigned char>(*raw)) || end == raw ||
        *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(std::string(name) + "=\"" + raw +
                                    "\" is not a base-10 integer in "
                                    "the int64 range");
    return v;
}

bool
fullScale()
{
    return envInt("SVARD_FULL", 0) != 0;
}

} // namespace svard
