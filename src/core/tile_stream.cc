#include "core/tile_stream.h"

#include "core/sim_context.h"

namespace dsmem::core::detail {

TileStream::TileStream(const TraceSource &src, SimContext &ctx)
    : src_(src), ring_(ctx.tileScratch().tiles),
      spans_(src.flat_ != nullptr ? (src.flat_->empty() ? 0 : 1)
                                  : src.chunked_->chunkCount()),
      threaded_(src.chunked_ != nullptr &&
                src.opt_.decode_threads > 0 && spans_ > 1)
{
    if (src.chunked_ == nullptr)
        return;
    const size_t need = threaded_ ? kRingTiles : 1;
    if (ring_.size() < need)
        ring_.resize(need);
    if (threaded_)
        producer_ = std::thread([this] { produce(); });
}

TileStream::~TileStream()
{
    if (producer_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_slot_.notify_all();
        producer_.join();
    }
}

bool
TileStream::next(trace::TileSpan &span)
{
    if (!threaded_) {
        if (handed_ >= spans_)
            return false;
        if (src_.flat_ != nullptr) {
            span = trace::TileSpan(*src_.flat_);
        } else {
            src_.chunked_->decodeChunk(handed_, ring_[0]);
            span = trace::TileSpan(ring_[0]);
        }
        ++handed_;
        return true;
    }

    std::unique_lock<std::mutex> lock(mu_);
    // Release the previously handed-out slot for rewriting.
    if (consumed_ < handed_) {
        consumed_ = handed_;
        cv_slot_.notify_all();
    }
    if (handed_ >= spans_) {
        if (err_)
            std::rethrow_exception(err_);
        return false;
    }
    cv_tile_.wait(lock, [this] { return produced_ > handed_ || err_; });
    if (err_)
        std::rethrow_exception(err_);
    span = trace::TileSpan(ring_[handed_++ % kRingTiles]);
    return true;
}

void
TileStream::produce()
{
    try {
        for (size_t c = 0; c < spans_; ++c) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_slot_.wait(lock, [&] {
                    return produced_ - consumed_ < kRingTiles || stop_;
                });
                if (stop_)
                    return;
            }
            src_.chunked_->decodeChunk(c, ring_[c % kRingTiles]);
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++produced_;
            }
            cv_tile_.notify_all();
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        err_ = std::current_exception();
        cv_tile_.notify_all();
    }
}

} // namespace dsmem::core::detail
