#include "io/retry.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <sys/types.h>
#include <unistd.h>

#include "common/log.h"
#include "fault_inject/fault_inject.h"
#include "obs/metrics.h"

namespace svard::io {

namespace {

/** End-of-file offset via the fd, not ftell: append-mode streams
 *  leave the stdio position indeterminate until the first write. */
off_t
endOffset(std::FILE *f)
{
    std::fflush(f);
    return ::lseek(::fileno(f), 0, SEEK_END);
}

void
truncateBack(std::FILE *f, off_t offset)
{
    std::clearerr(f);
    // Drop any buffered half-write before truncating, or a later
    // fflush would resurrect it past the truncation point.
    std::fflush(f);
    std::clearerr(f);
    if (::ftruncate(::fileno(f), offset) != 0)
        throw std::runtime_error(
            std::string("ftruncate failed during write recovery: ") +
            std::strerror(errno));
    std::fseek(f, 0, SEEK_END);
    std::clearerr(f);
}

} // anonymous namespace

void
appendWithRetry(std::FILE *f, const std::string &path,
                const char *fault_point, const char *data, size_t size)
{
    const off_t start = endOffset(f);
    if (start < 0)
        throw std::runtime_error("cannot locate end of \"" + path +
                                 "\": " + std::strerror(errno));
    for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
        bool ok = false;
        const faults::Hit hit = faults::check(fault_point);
        switch (hit.action) {
        case faults::Action::Eio:
            errno = EIO;
            break;
        case faults::Action::Short:
            std::fwrite(data, 1, size / 2, f);
            errno = ENOSPC;
            break;
        case faults::Action::Torn:
            // Half the bytes reach the OS, then the process dies:
            // the on-disk file ends in a torn record for reload
            // repair paths to chew on.
            std::fwrite(data, 1, size / 2, f);
            std::fflush(f);
            std::_Exit(137);
        default:
            ok = std::fwrite(data, 1, size, f) == size &&
                 std::fflush(f) == 0;
            break;
        }
        if (ok) {
            if (attempt > 0)
                inform("write to \"" + path + "\" succeeded after " +
                       std::to_string(attempt) + " retr" +
                       (attempt == 1 ? "y" : "ies"));
            return;
        }
        const int err = errno;
        static const obs::MetricId retries =
            obs::counter("io.write_retries");
        obs::add(retries);
        truncateBack(f, start);
        if (attempt + 1 < kIoAttempts) {
            warn("transient write failure on \"" + path + "\" (" +
                 std::strerror(err) + "), attempt " +
                 std::to_string(attempt + 1) + "/" +
                 std::to_string(kIoAttempts) + "; backing off");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kIoBackoffMs << (3 * attempt)));
        } else {
            throw std::runtime_error(
                "write to \"" + path + "\" failed after " +
                std::to_string(kIoAttempts) +
                " attempts: " + std::strerror(err));
        }
    }
}

} // namespace svard::io
