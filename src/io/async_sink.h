/**
 * @file
 * Asynchronous sink decorator: producers enqueue finished cells into
 * a bounded MPSC queue and a dedicated writer thread drains it into
 * the wrapped sink, so simulation workers never block on file I/O
 * (until the queue fills, at which point writes apply backpressure
 * instead of buffering unboundedly). flush() waits for the queue to
 * drain and then flushes the inner sink; the writer also flushes it
 * each time the queue drains, so a batching inner sink (CsvSink)
 * still shows every row handed over. Errors raised on the writer
 * thread, flushes included, are rethrown to the producer at the next
 * write()/flush().
 */
#ifndef SVARD_IO_ASYNC_SINK_H
#define SVARD_IO_ASYNC_SINK_H

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>

#include "common/mutex.h"
#include "io/result_sink.h"

namespace svard::io {

class AsyncSink : public ResultSink
{
  public:
    explicit AsyncSink(std::unique_ptr<ResultSink> inner,
                       size_t queue_capacity = 256);
    ~AsyncSink() override;

    /** Enqueue a row; blocks while the queue holds `capacity` rows. */
    void write(const engine::CellResult &row) override;

    /** Drain the queue, then flush the wrapped sink. */
    void flush() override;

    /** Rows queued or in the writer's hands (0: all written and, via
     *  the drain flush, passed on by the inner sink). */
    size_t queueDepth() const;

  private:
    void writerLoop();

    /** Touched by the writer thread lock-free (inner_->write between
     *  pop and re-lock) and by flush() under mu_; the writing_ flag
     *  in the drained_ handshake is what keeps the two exclusive, so
     *  the pointer itself stays un-annotated. */
    std::unique_ptr<ResultSink> inner_;
    const size_t capacity_;

    mutable Mutex mu_;
    CondVar canPush_;
    CondVar canPop_;
    CondVar drained_;
    std::deque<engine::CellResult> queue_ SVARD_GUARDED_BY(mu_);
    bool stop_ SVARD_GUARDED_BY(mu_) = false;
    /** A row is between pop and inner write. */
    bool writing_ SVARD_GUARDED_BY(mu_) = false;
    std::exception_ptr error_ SVARD_GUARDED_BY(mu_);

    std::thread writer_;
};

} // namespace svard::io

#endif // SVARD_IO_ASYNC_SINK_H
