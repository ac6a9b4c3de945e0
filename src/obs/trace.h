/**
 * @file
 * Scoped-span tracing that writes a chrome://tracing- and Perfetto-
 * compatible trace.json. One Span per interesting unit of work (sweep
 * cell, charz row batch, baseline run, cache probe, AsyncSink flush),
 * with per-thread lanes and key/value args (cell coordinates, seed...).
 *
 * Off by default and cheap when off: constructing a Span while tracing
 * is disabled is a single relaxed atomic load and no allocation.
 * Enable by exporting SVARD_TRACE=<path> (the file is written when the
 * process exits or stopTrace() runs) or programmatically with
 * startTrace()/stopTrace() (used by tests).
 *
 * Tracing, like metrics, never feeds back into simulation — traced and
 * untraced runs produce byte-identical result tables.
 */
#ifndef SVARD_OBS_TRACE_H
#define SVARD_OBS_TRACE_H

#include <cstdint>
#include <string>

namespace svard::obs {

/** Whether spans are currently being recorded. */
bool traceEnabled();

/** Begin recording to `path`; replaces any active trace (flushing it). */
void startTrace(const std::string &path);

/** Write the active trace to its path and stop recording. No-op when idle. */
void stopTrace();

/** Path of the active trace file ("" when not tracing). */
std::string tracePath();

/**
 * RAII span: records a complete event covering its lifetime. When
 * tracing is off the constructor leaves rec_ null and every method is
 * a no-op, so hot code can create spans unconditionally.
 */
class Span
{
  public:
    /**
     * @param category  static string, groups spans in the viewer
     * @param name      static string; use arg() for dynamic detail
     */
    Span(const char *category, const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a key/value arg (shown in the viewer's detail pane). */
    void arg(const char *key, const std::string &v);
    void arg(const char *key, uint64_t v);
    void arg(const char *key, double v);

  private:
    struct Rec;
    Rec *rec_ = nullptr; ///< null when tracing is disabled
};

} // namespace svard::obs

#endif // SVARD_OBS_TRACE_H
