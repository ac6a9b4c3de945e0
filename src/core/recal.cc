#include "core/recal.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace svard::core {

namespace {

[[noreturn]] void
badPolicy(const std::string &text, const char *why)
{
    throw std::invalid_argument(
        "bad recalibration policy \"" + text + "\": " + why +
        " (grammar: none | periodic:<interval> | "
        "reactive:<escapes> | margin:<headroom>)");
}

double
parseArg(const std::string &text, const std::string &tok)
{
    try {
        size_t pos = 0;
        const double v = std::stod(tok, &pos);
        if (pos != tok.size() || !std::isfinite(v))
            badPolicy(text, "malformed argument");
        return v;
    } catch (const std::invalid_argument &) {
        badPolicy(text, "malformed argument");
    } catch (const std::out_of_range &) {
        badPolicy(text, "malformed argument");
    }
}

} // anonymous namespace

RecalPolicy
RecalPolicy::parse(const std::string &text)
{
    RecalPolicy p;
    const size_t colon = text.find(':');
    const std::string head = text.substr(0, colon);
    const bool has_arg = colon != std::string::npos;
    const std::string tok =
        has_arg ? text.substr(colon + 1) : std::string();

    if (head == "none") {
        if (has_arg)
            badPolicy(text, "\"none\" takes no argument");
        p.kind = RecalKind::None;
    } else if (head == "periodic") {
        if (!has_arg)
            badPolicy(text, "periodic needs an epoch interval");
        p.kind = RecalKind::Periodic;
        p.arg = parseArg(text, tok);
        if (p.arg < 1.0 || p.arg != std::floor(p.arg) ||
            p.arg > 1e6)
            badPolicy(text, "interval must be an integer >= 1");
    } else if (head == "reactive") {
        if (!has_arg)
            badPolicy(text, "reactive needs an escape threshold");
        p.kind = RecalKind::Reactive;
        p.arg = parseArg(text, tok);
        if (p.arg < 1.0 || p.arg != std::floor(p.arg) ||
            p.arg > 1e12)
            badPolicy(text, "escape threshold must be an integer "
                            ">= 1");
    } else if (head == "margin") {
        if (!has_arg)
            badPolicy(text, "margin needs a headroom fraction");
        p.kind = RecalKind::Margin;
        p.arg = parseArg(text, tok);
        if (!(p.arg > 0.0) || p.arg > 0.9)
            badPolicy(text, "headroom must be in (0, 0.9]");
    } else {
        badPolicy(text, "unknown policy");
    }
    return p;
}

std::string
RecalPolicy::name() const
{
    char buf[64];
    switch (kind) {
      case RecalKind::None:
        return "none";
      case RecalKind::Periodic:
        snprintf(buf, sizeof buf, "periodic:%.0f", arg);
        return buf;
      case RecalKind::Reactive:
        snprintf(buf, sizeof buf, "reactive:%.0f", arg);
        return buf;
      case RecalKind::Margin:
        snprintf(buf, sizeof buf, "margin:%g", arg);
        return buf;
    }
    return "none";
}

} // namespace svard::core
