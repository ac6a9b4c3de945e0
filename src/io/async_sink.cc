#include "io/async_sink.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace svard::io {
namespace {

obs::MetricId
queueHighWaterGauge()
{
    static const obs::MetricId id =
        obs::gauge("io.sink_queue_high_water");
    return id;
}

obs::MetricId
rowsWrittenCounter()
{
    static const obs::MetricId id = obs::counter("io.sink_rows_written");
    return id;
}

obs::MetricId
flushLatencyHistogram()
{
    static const obs::MetricId id =
        obs::histogram("io.sink_flush_us");
    return id;
}

} // namespace

AsyncSink::AsyncSink(std::unique_ptr<ResultSink> inner,
                     size_t queue_capacity)
    : inner_(std::move(inner)),
      capacity_(std::max<size_t>(1, queue_capacity))
{
    SVARD_ASSERT(inner_ != nullptr, "AsyncSink needs an inner sink");
    writer_ = std::thread([this] { writerLoop(); });
}

AsyncSink::~AsyncSink()
{
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    canPop_.notify_all();
    writer_.join();
    // Best-effort final flush; destructors must not throw.
    try {
        inner_->flush();
    } catch (...) {
    }
}

void
AsyncSink::write(const engine::CellResult &row)
{
    std::exception_ptr err;
    {
        UniqueLock lock(mu_);
        while (queue_.size() >= capacity_ && !error_)
            canPush_.wait(lock);
        if (error_) {
            err = error_;
        } else {
            queue_.push_back(row);
            obs::gaugeMax(queueHighWaterGauge(), queue_.size());
        }
    }
    if (err)
        std::rethrow_exception(err);
    canPop_.notify_one();
}

void
AsyncSink::flush()
{
    obs::Span span("io", "async_flush");
    const auto start = std::chrono::steady_clock::now();
    std::exception_ptr err;
    {
        UniqueLock lock(mu_);
        span.arg("queued", static_cast<uint64_t>(queue_.size()));
        while (!(queue_.empty() && !writing_) && !error_)
            drained_.wait(lock);
        if (error_) {
            err = error_;
        } else {
            // Keep the lock across the inner flush: releasing it
            // would let a concurrent producer wake the writer into
            // inner_->write() while we are inside inner_->flush() — a
            // data race on the inner sink, which is promised
            // single-threaded access.
            inner_->flush();
        }
    }
    if (err)
        std::rethrow_exception(err);
    obs::observe(flushLatencyHistogram(),
                 static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count()));
}

size_t
AsyncSink::queueDepth() const
{
    MutexLock lock(mu_);
    return queue_.size() + (writing_ ? 1 : 0);
}

void
AsyncSink::writerLoop()
{
    for (;;) {
        engine::CellResult row;
        {
            UniqueLock lock(mu_);
            while (!stop_ && queue_.empty())
                canPop_.wait(lock);
            if (queue_.empty()) {
                // stop_ and drained: exit after the last row is
                // written.
                return;
            }
            row = std::move(queue_.front());
            queue_.pop_front();
            writing_ = true;
        }
        canPush_.notify_one();

        std::exception_ptr werr;
        try {
            // The inner sink owns transient-failure retry (CsvSink
            // retries each batch append); what reaches here latches.
            inner_->write(row);
            // Queue drained: push the inner sink's buffered rows out,
            // so a wrapped file grows per finished cell (tail -f).
            // writing_ is still set, which keeps flush() off inner_.
            bool drained = false;
            {
                MutexLock lock(mu_);
                drained = queue_.empty();
            }
            if (drained)
                inner_->flush();
        } catch (...) {
            werr = std::current_exception();
        }
        if (!werr)
            obs::add(rowsWrittenCounter());

        UniqueLock lock(mu_);
        writing_ = false;
        if (werr) {
            error_ = werr;
            queue_.clear(); // unblock producers; rows are lost anyway
            lock.unlock();
            canPush_.notify_all();
            drained_.notify_all();
            return;
        }
        if (queue_.empty())
            drained_.notify_all();
    }
}

} // namespace svard::io
