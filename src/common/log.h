/**
 * @file
 * Status/error reporting helpers (gem5-style fatal/panic/warn/inform).
 *
 * panic(): an internal invariant was violated (a bug in this library);
 * aborts so a debugger/core dump can capture state.
 * fatal(): the caller supplied an impossible configuration; exits(1).
 * warn()/inform(): non-fatal status lines, all on stderr so
 * machine-read CSV/JSON on stdout is never corrupted by diagnostics.
 *
 * Severity filtering: SVARD_LOG_LEVEL=error|warn|info|debug (or 0-3)
 * suppresses lines below the chosen level; default is info. No
 * message is debug-only, so debug prints what info does.
 * panic/fatal always print.
 */
#ifndef SVARD_COMMON_LOG_H
#define SVARD_COMMON_LOG_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace svard {

enum class LogLevel : int
{
    Error = 0, ///< only panic/fatal (which are unconditional anyway)
    Warn = 1,  ///< + warn()
    Info = 2,  ///< + inform()  [default]
    Debug = 3, ///< same output as Info
};

/** Parse a SVARD_LOG_LEVEL value; unknown strings fall back to Info. */
inline LogLevel
parseLogLevel(const char *s)
{
    if (!s || !*s)
        return LogLevel::Info;
    if (!std::strcmp(s, "error") || !std::strcmp(s, "0"))
        return LogLevel::Error;
    if (!std::strcmp(s, "warn") || !std::strcmp(s, "1"))
        return LogLevel::Warn;
    if (!std::strcmp(s, "info") || !std::strcmp(s, "2"))
        return LogLevel::Info;
    if (!std::strcmp(s, "debug") || !std::strcmp(s, "3"))
        return LogLevel::Debug;
    return LogLevel::Info;
}

namespace detail {

inline LogLevel &
logLevelRef()
{
    static LogLevel level = parseLogLevel(std::getenv("SVARD_LOG_LEVEL"));
    return level;
}

} // namespace detail

/** Current severity threshold (env-initialized, runtime-overridable). */
inline LogLevel
logLevel()
{
    return detail::logLevelRef();
}

/** Override the threshold programmatically (wins over the env var). */
inline void
setLogLevel(LogLevel level)
{
    detail::logLevelRef() = level;
}

/** Print an error location prefix and abort. Use for internal bugs. */
[[noreturn]] inline void
panicAt(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    std::abort();
}

/** Print an error location prefix and exit(1). Use for user errors. */
[[noreturn]] inline void
fatalAt(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s:%d: %s\n", file, line, msg.c_str());
    std::exit(1);
}

/** Non-fatal warning on stderr. */
inline void
warn(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** Informational message on stderr (stdout is reserved for results). */
inline void
inform(const std::string &msg)
{
    if (logLevel() >= LogLevel::Info)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace svard

#define SVARD_PANIC(msg) ::svard::panicAt(__FILE__, __LINE__, (msg))
#define SVARD_FATAL(msg) ::svard::fatalAt(__FILE__, __LINE__, (msg))

/** Assert an internal invariant; active in all build types. */
#define SVARD_ASSERT(cond, msg)                                            \
    do {                                                                   \
        if (!(cond))                                                       \
            SVARD_PANIC(std::string("assertion failed: ") + #cond +        \
                        ": " + (msg));                                     \
    } while (0)

#endif // SVARD_COMMON_LOG_H
