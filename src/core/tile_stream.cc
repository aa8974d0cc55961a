#include "core/tile_stream.h"

#include "core/sim_context.h"

namespace dsmem::core::detail {

TileStream::TileStream(const TraceSource &src, SimContext &ctx,
                       trace::TileColumns cols)
    : src_(src), tile_(ctx.tileScratch()), cols_(cols),
      spans_(src.flat_ != nullptr ? (src.flat_->empty() ? 0 : 1)
                                  : src.chunked_->chunkCount())
{
}

bool
TileStream::next(trace::TileSpan &span)
{
    if (handed_ >= spans_)
        return false;
    if (src_.flat_ != nullptr) {
        span = trace::TileSpan(*src_.flat_);
    } else {
        src_.chunked_->decodeChunk(handed_, tile_, cols_);
        span = trace::TileSpan(tile_);
    }
    ++handed_;
    return true;
}

} // namespace dsmem::core::detail
