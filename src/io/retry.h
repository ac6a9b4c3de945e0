/**
 * @file
 * Transient-I/O retry with bounded backoff. Before this layer, the
 * first sink/cache write error latched and aborted the whole sweep —
 * a single EINTR-grade hiccup on an NFS mount could throw away hours
 * of simulation. Now every append goes through a small transaction:
 *
 *   1. remember the current end-of-file offset,
 *   2. write + flush,
 *   3. on failure, truncate back to the remembered offset (so a
 *      partial write never leaves garbage between records) and retry
 *      after a bounded exponential backoff,
 *   4. after kIoAttempts failures, rethrow — persistent failures
 *      (disk full, revoked quota) still surface loudly.
 *
 * The truncate-back step is what makes retry safe: without it a
 * short write followed by a successful retry would interleave half a
 * record with a whole one, and every record after the splice would
 * be invisible to (or resynced past by) readers.
 *
 * Fault injection: each append names its injection point
 * (fault_inject.h), so tests drive the eio/short/torn paths
 * deterministically.
 */
#ifndef SVARD_IO_RETRY_H
#define SVARD_IO_RETRY_H

#include <cstdio>
#include <string>

namespace svard::io {

/** Write attempts before a transient error is treated as fatal. */
constexpr int kIoAttempts = 4;

/** Backoff before retry k (0-based): kIoBackoffMs << (3 * k). */
constexpr int kIoBackoffMs = 1;

/**
 * Append `size` bytes to `f` (positioned at end; append-mode or
 * sequential write-mode streams both qualify) with the
 * truncate-back-and-retry transaction above. `fault_point` names the
 * injection point consulted once per attempt.
 *
 * @throws std::runtime_error after kIoAttempts failed attempts (the
 *         file is truncated back to its pre-call size first, so a
 *         caller that catches and continues has an intact file).
 */
void appendWithRetry(std::FILE *f, const std::string &path,
                     const char *fault_point, const char *data,
                     size_t size);

inline void
appendWithRetry(std::FILE *f, const std::string &path,
                const char *fault_point, const std::string &data)
{
    appendWithRetry(f, path, fault_point, data.data(), data.size());
}

} // namespace svard::io

#endif // SVARD_IO_RETRY_H
