/**
 * @file
 * Streaming result sinks for experiment sweeps. The engine emits each
 * finished CellResult to a ResultSink in final enumeration order, so
 * paper-scale grids can be tailed, checkpointed, and resumed instead
 * of materializing in memory until the last cell lands.
 *
 * CsvSink is the one result sink: one row per cell. Doubles are
 * printed with 17 significant digits, so text -> double recovers the
 * exact bits and a resumed sweep's CSV is byte-identical to an
 * uninterrupted run's. Rows are built in memory and appended in
 * batches of whole rows: they reach the file once 64 KiB are pending,
 * at flush(), and at destruction. Wrapped in AsyncSink, the file also
 * grows each time the queue drains, so `tail -f` follows a sweep cell
 * by cell.
 *
 * The same file holds the binary record codec (length-prefixed,
 * checksummed, format "SVC4") that SweepCache writes and reads: the
 * checkpoint of a sweep is its cache.
 *
 * Sinks are NOT thread-safe: the engine serializes emission through
 * its ordered emitter; wrap a sink in AsyncSink to move the file I/O
 * off the worker threads.
 */
#ifndef SVARD_IO_RESULT_SINK_H
#define SVARD_IO_RESULT_SINK_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/sweep.h"

namespace svard::io {

/** Row-at-a-time consumer of finished sweep cells. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /**
     * Emit one finished cell (calls arrive in final table order).
     * @throws std::runtime_error on I/O failure (e.g. disk full) —
     *         silent truncation of a result table is never OK.
     */
    virtual void write(const engine::CellResult &row) = 0;

    /** Make everything written so far durable/visible.
     *  @throws std::runtime_error on I/O failure. */
    virtual void flush() {}
};

// ------------------------------------------------------------------
// Text format
// ------------------------------------------------------------------

class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(const std::string &path);
    /** Appends the pending rows; a failure there is a warning. */
    ~CsvSink() override;

    /** Queue one row; appends the batch once it reaches 64 KiB. On
     *  a throw, no part of `row` stays queued. */
    void write(const engine::CellResult &row) override;
    /** Append the pending rows (one "csv.write" transaction). */
    void flush() override;

    /** The header line (no newline); also what the reader expects. */
    static const char *header();

  private:
    void appendPending();

    std::string path_;
    std::FILE *file_ = nullptr;
    /** Whole rows not yet appended to the file. */
    std::string pending_;
};

// ------------------------------------------------------------------
// Binary record format (SweepCache)
// ------------------------------------------------------------------

/**
 * Append one framed record (magic, length, key, checksum) to `f`.
 * The payload is explicitly little-endian (format "SVC4"); big-endian
 * hosts byte-swap on encode and decode, so checkpoints are portable
 * between machines. Transient failures retry with the truncate-back
 * transaction in retry.h; each attempt consults the "cache.store"
 * injection point (tests drive eio/short/torn through it).
 * @throws std::runtime_error after the retry budget is exhausted.
 */
void appendRecord(std::FILE *f, const engine::CellResult &row,
                  const std::string &path);

/** The framed record appendRecord writes for `row`. Decoding a record
 *  and encoding it again gives back its bytes. */
std::string encodeRecord(const engine::CellResult &row);

/** What readRecords saw besides the records themselves. */
struct RecordReadStats
{
    /** Offset just past the last intact record (SweepCache truncates
     *  a torn tail there before appending, or new records would hide
     *  behind the garbage). */
    uint64_t validBytes = 0;
    /** Mid-file bytes skipped to reach a later intact record. */
    uint64_t droppedBytes = 0;
    /** Corrupt regions skipped (resyncs onto a later record magic). */
    uint32_t resyncs = 0;
};

/** Bytes of the smallest SVC4 record (empty strings), so
 *  a file of N bytes holds at most N / kMinRecordBytes records. */
inline constexpr uint64_t kMinRecordBytes = 200;

/**
 * Decode every intact record from `f` (from its current position),
 * calling `fn` on each in file order. The file is read once into one
 * buffer; each payload is checksummed and decoded in place into one
 * reused CellResult, so the reference `fn` gets is valid only for
 * that call. A record counts only when its checksum matches, its
 * payload decodes to exactly its length and its key matches the
 * frame's. A corrupt record mid-file does not hide everything after
 * it: the reader scans forward for the next record magic, resumes
 * there, and reports what it skipped in `stats`. Bytes after the last
 * intact record (the torn tail a kill mid-write leaves) are excluded
 * from validBytes but not counted as dropped — tail truncation is
 * routine crash recovery, mid-file damage is worth a warning.
 */
void forEachRecord(std::FILE *f, RecordReadStats *stats,
                   const std::function<void(const engine::CellResult &)> &fn);

/** forEachRecord collected into a vector. */
std::vector<engine::CellResult>
readRecords(std::FILE *f, RecordReadStats *stats = nullptr);

// ------------------------------------------------------------------
// Whole-file reader + helpers
// ------------------------------------------------------------------

/** Load a CsvSink file. @throws std::runtime_error on malformed input. */
std::vector<engine::CellResult>
readCsvResults(const std::string &path);

/**
 * Reject a result path the sinks no longer write, without touching
 * any file.
 * @throws std::invalid_argument for ".jsonl", ".bin" and ".svc": the
 *         JSONL and binary result sinks are retired, and checkpoints
 *         are written through SweepCache (a bench's --cache).
 */
void checkSinkPath(const std::string &path);

/** Sink for a path: a CsvSink, after checkSinkPath(path). */
std::unique_ptr<ResultSink> makeSinkForPath(const std::string &path);

/** Exact-round-trip double formatting: 17 significant digits, the
 *  same text as printf("%.17g"). */
std::string formatDouble(double v);

} // namespace svard::io

#endif // SVARD_IO_RESULT_SINK_H
