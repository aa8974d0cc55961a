#ifndef DSMEM_CORE_SLOT_ALLOCATOR_H
#define DSMEM_CORE_SLOT_ALLOCATOR_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"

namespace dsmem::core {

/**
 * Allocates cycles of a resource with fixed per-cycle capacity
 * (functional units, the single cache port).
 *
 * allocate(t) returns the first cycle >= t with spare capacity and
 * consumes one unit of it. Requests arrive in program order but not
 * in time order, so full cycles are skipped via a union-find
 * "next candidate" map with path compression (amortized near O(1)).
 *
 * Because instruction decode times are non-decreasing and no request
 * can target a cycle before the requesting instruction's decode,
 * callers may prune() entries below a watermark to bound memory.
 */
class SlotAllocator
{
  public:
    explicit SlotAllocator(uint32_t capacity_per_cycle = 1)
        : capacity_(capacity_per_cycle == 0 ? 1 : capacity_per_cycle)
    {}

    /** First free cycle >= @p t; consumes one slot of it. */
    uint64_t allocate(uint64_t t)
    {
        uint64_t cycle = findFree(t);
        uint32_t &used = used_[cycle];
        ++used;
        if (used >= capacity_)
            next_[cycle] = cycle + 1;
        return cycle;
    }

    /** Drop bookkeeping for cycles strictly below @p watermark. */
    void prune(uint64_t watermark)
    {
        std::erase_if(used_,
                      [&](const auto &kv) { return kv.first < watermark; });
        std::erase_if(next_,
                      [&](const auto &kv) { return kv.first < watermark; });
    }

    uint32_t capacity() const { return capacity_; }

  private:
    uint64_t findFree(uint64_t t)
    {
        // Follow "next" pointers through full cycles, compressing the
        // path on the way back.
        path_.clear();
        uint64_t cur = t;
        for (;;) {
            auto it = next_.find(cur);
            if (it == next_.end())
                break;
            path_.push_back(cur);
            cur = it->second;
        }
        for (uint64_t p : path_)
            next_[p] = cur;
        return cur;
    }

    uint32_t capacity_;
    std::unordered_map<uint64_t, uint32_t> used_;
    std::unordered_map<uint64_t, uint64_t> next_;
    std::vector<uint64_t> path_;
};

/**
 * SlotAllocator specialized for the timing loops' access pattern,
 * with two representations picked by capacity at reset():
 *
 * Capacity 1 or 2 (every per-FU allocator the lanes actually bind —
 * the dual integer ALU is the only capacity-2 unit) uses a sliding
 * *bitmap window*: one bit per cycle in an occupancy map (plus a
 * second "full" map for capacity 2), anchored at a 64-aligned base.
 * An allocation in the common monotone case is a single OR into a
 * word of a ~64-byte-per-map structure, and the non-monotone case is
 * a word-at-a-time scan for the first zero bit — the first not-full
 * cycle >= t. The whole allocator stays inside one or two cache
 * lines, which is what makes it survive the memory-bound regime
 * where streamed trace arrays continuously evict larger structures
 * (the previous cell-ring representation spent a third of total
 * sweep CPU refetching its 12 KB of cells).
 *
 * Larger capacities keep the direct-mapped ring of cycle cells.
 *
 * Both representations lean on the same two facts. First, no request
 * ever targets a cycle below the requesting instruction's decode
 * time, and decode times are non-decreasing — the caller publishes
 * that bound via advanceWatermark(), letting the bitmap slide its
 * base forward (dropping dead bits) and the ring reclaim dead cells
 * on collision (the lazy equivalent of SlotAllocator::prune).
 * Second, live cycles span a bounded lead over the watermark
 * (store-buffer depth times miss latency, roughly), so a modest
 * window rarely overflows; when it does, the window doubles.
 *
 * Either way allocate() returns exactly the cycles SlotAllocator
 * returns (the equivalence tests drive both against each other;
 * SlotAllocator is kept verbatim above as the reference and as
 * bench_hotloop's pre-optimization baseline).
 *
 * A request for an unused cycle inside the bitmap window reads only
 * the window — its base, extent and words — so those form a Cursor
 * whose claim() is the whole fast path, inline in allocate().
 * Everything else is allocateSlow(), kept out of line; only it moves
 * the window. The struct-of-lanes sweep keeps a copy of each lane's
 * cursors in its own lane-indexed arrays, runs claim() there, and
 * re-reads a cursor after anything that may have moved it: one
 * allocator, whichever loop drives it.
 */
class RingSlotAllocator
{
  public:
    /**
     * The bitmap window: all the fast path reads. In cell-ring mode
     * limit is 0, so claim() always declines.
     */
    struct Cursor {
        uint64_t base = 0;  ///< Cycle of bitmap bit 0; multiple of 64.
        uint64_t limit = 0; ///< Window extent in cycles.
        uint64_t *occ = nullptr; ///< Bitmap words: cycle has >= 1 use.

        /**
         * Take @p t when it lies inside the window and nothing holds
         * it yet. An unused cycle is free at any capacity, and its
         * first use fills no capacity-2 cycle, so setting its
         * occupancy bit is the whole allocation. The hot loops'
         * requests are non-decreasing except across a miss stall, so
         * they mostly land above every used cycle; one below them
         * after such a stall usually finds its own cycle unused too.
         */
        bool claim(uint64_t t) const
        {
            const uint64_t pos = t - base;
            if (pos >= limit)
                return false;
            uint64_t &word = occ[pos >> 6];
            const uint64_t bit = uint64_t{1} << (pos & 63);
            if (word & bit)
                return false;
            word |= bit;
            return true;
        }
    };

    explicit RingSlotAllocator(uint32_t capacity_per_cycle = 1,
                               size_t initial_span = 512)
    {
        size_t span = 64;
        while (span < initial_span)
            span <<= 1;
        init_span_ = span;
        reset(capacity_per_cycle);
    }

    // The cursor points into occ_: a copy would alias the source's
    // bitmap. Moves keep the vector's storage, so they stay valid.
    RingSlotAllocator(const RingSlotAllocator &) = delete;
    RingSlotAllocator &operator=(const RingSlotAllocator &) = delete;
    RingSlotAllocator(RingSlotAllocator &&) = default;
    RingSlotAllocator &operator=(RingSlotAllocator &&) = default;

    /**
     * Promise that no future allocate() will request a cycle below
     * @p watermark (must be non-decreasing across calls). Cells and
     * bitmap bits below it become reclaimable.
     */
    void advanceWatermark(uint64_t watermark) { watermark_ = watermark; }

    /**
     * Re-initialize for a fresh run, keeping any grown window or
     * span. The cycles allocate() returns depend only on the request
     * sequence, never on the representation or its size, so a reset
     * allocator is bit-identical to a newly constructed one.
     *
     * Bitmap mode zero-fills its maps (tens of bytes — cheaper than
     * any bookkeeping that would avoid it); the cell ring keeps the
     * O(1) generation-counter reset because clearing 24 bytes x span
     * across seven allocators per lane rebind would dominate the
     * cost of binding many small cells.
     */
    void reset(uint32_t capacity_per_cycle)
    {
        capacity_ = capacity_per_cycle == 0 ? 1 : capacity_per_cycle;
        watermark_ = 0;
        top_ = 0;
        cur_ = Cursor{};
        if (capacity_ <= 2) {
            const size_t words = init_span_ >> 6;
            if (occ_.size() < words)
                occ_.assign(words, 0);
            else
                std::fill(occ_.begin(), occ_.end(), 0);
            if (capacity_ == 2) {
                if (full_.size() < occ_.size())
                    full_.assign(occ_.size(), 0);
                else
                    std::fill(full_.begin(), full_.end(), 0);
            }
            syncWindow();
            return;
        }
        if (cells_.empty()) {
            cells_.resize(init_span_);
            mask_ = init_span_ - 1;
        }
        if (++epoch_ == 0) {
            std::fill(cells_.begin(), cells_.end(), Cell{});
            epoch_ = 1;
        }
    }

    /** First free cycle >= @p t; consumes one slot of it. */
    uint64_t allocate(uint64_t t)
    {
        return cur_.claim(t) ? t : allocateSlow(t);
    }

    /**
     * Every case of allocate() that Cursor::claim() declines: a
     * request for a cycle in use, outside the window, or in
     * cell-ring mode.
     */
    [[gnu::noinline]] uint64_t allocateSlow(uint64_t t)
    {
        if (capacity_ <= 2)
            return allocateBitmap(t);
        return allocateCells(t);
    }

    /**
     * The fast-path state. Only allocateSlow() (and so allocate())
     * and reset() change it; a copy claims exactly like allocate().
     */
    const Cursor &cursor() const { return cur_; }

    /** Window (bitmap) or ring (cells) extent in cycles resp. cells. */
    size_t span() const
    {
        return capacity_ <= 2 ? occ_.size() << 6 : cells_.size();
    }
    uint32_t capacity() const { return capacity_; }

  private:
    uint64_t allocateBitmap(uint64_t t)
    {
        if (t - cur_.base >= cur_.limit)
            ensureWindow(t);
        // Now that the window admits t (see Cursor::claim).
        if (cur_.claim(t))
            return t;
        // t is in use. Scan the full-map (capacity 1: one use fills
        // a cycle, so the occupancy map doubles as it) for the first
        // zero bit at or above t. Bits above the highest allocated
        // cycle are never set, so the scan ends within the window
        // unless every cycle in t..window-end is full — then widen
        // and rescan (rare).
        for (;;) {
            const std::vector<uint64_t> &fullmap =
                capacity_ == 1 ? occ_ : full_;
            // Recomputed each pass: a widening below may slide the
            // base.
            const uint64_t base = cur_.base;
            const size_t spos = static_cast<size_t>(t - base);
            size_t wi = spos >> 6;
            uint64_t m =
                fullmap[wi] | ((uint64_t{1} << (spos & 63)) - 1);
            while (m == ~uint64_t{0}) {
                if (++wi == fullmap.size())
                    break;
                m = fullmap[wi];
            }
            if (wi == fullmap.size()) {
                ensureWindow(base + cur_.limit);
                continue;
            }
            uint64_t cycle = base + (static_cast<uint64_t>(wi) << 6) +
                             static_cast<unsigned>(
                                 std::countr_zero(~m));
            const uint64_t bit =
                uint64_t{1} << (static_cast<size_t>(cycle - base) & 63);
            const size_t cw = static_cast<size_t>(cycle - base) >> 6;
            if (capacity_ == 1) {
                occ_[cw] |= bit;
            } else if (occ_[cw] & bit) {
                full_[cw] |= bit;
            } else {
                occ_[cw] |= bit;
            }
            return cycle;
        }
    }

    /**
     * Make the window admit @p t: slide the base up to the watermark
     * (bits below it are dead — the contract says they can never be
     * requested again), then double the word count until t fits.
     * Sliding is a word-granular memmove of tens of bytes, amortized
     * over the hundreds of allocations between slides.
     */
    void ensureWindow(uint64_t t)
    {
        const uint64_t nb = watermark_ & ~uint64_t{63};
        if (nb > cur_.base) {
            const size_t shift =
                static_cast<size_t>((nb - cur_.base) >> 6);
            slideWords(occ_, shift);
            if (capacity_ == 2)
                slideWords(full_, shift);
            cur_.base = nb;
        }
        while (t - cur_.base >= occ_.size() << 6) {
            occ_.resize(occ_.size() * 2, 0);
            if (capacity_ == 2)
                full_.resize(occ_.size(), 0);
        }
        syncWindow();
    }

    /** Point the cursor at the bitmap's current storage and extent. */
    void syncWindow()
    {
        cur_.limit = occ_.size() << 6;
        cur_.occ = occ_.data();
    }

    static void slideWords(std::vector<uint64_t> &words, size_t shift)
    {
        if (shift >= words.size()) {
            std::fill(words.begin(), words.end(), 0);
            return;
        }
        std::copy(words.begin() + static_cast<ptrdiff_t>(shift),
                  words.end(), words.begin());
        std::fill(words.end() - static_cast<ptrdiff_t>(shift),
                  words.end(), 0);
    }

    uint64_t allocateCells(uint64_t t)
    {
        // Monotone fast path: nothing was ever allocated above top_,
        // so t is free by construction.
        if (t > top_) {
            top_ = t;
            Cell &cell = cells_[cellIndex(t)];
            ++cell.used;
            if (cell.used >= capacity_)
                cell.next = t + 1;
            return t;
        }
        uint64_t cycle = findFree(t);
        Cell &cell = cells_[cellIndex(cycle)];
        ++cell.used;
        if (cell.used >= capacity_)
            cell.next = cycle + 1;
        if (cycle > top_)
            top_ = cycle;
        return cycle;
    }
    struct Cell {
        uint64_t cycle = 0;
        uint64_t next = 0;  ///< Next candidate once the cycle is full.
        uint32_t used = 0;  ///< 0 marks the cell empty/reclaimable.
        uint32_t epoch = 0; ///< Generation; stale => empty. Fits the
                            ///< struct padding — Cell stays 24 bytes.
    };

    /**
     * Index of the cell for @p cur, claiming an empty, stale, or dead
     * cell on the way; grows the ring when a live cell for a
     * different cycle occupies the slot.
     */
    size_t cellIndex(uint64_t cur)
    {
        for (;;) {
            size_t idx = static_cast<size_t>(cur) & mask_;
            Cell &slot = cells_[idx];
            if (slot.epoch != epoch_ || slot.used == 0) {
                // Claim an empty or previous-generation cell; stays
                // empty until used.
                slot = Cell{cur, 0, 0, epoch_};
                return idx;
            }
            if (slot.cycle == cur)
                return idx;
            if (slot.cycle < watermark_) {
                slot = Cell{cur, 0, 0, epoch_}; // Reclaim a dead cycle.
                return idx;
            }
            grow();
        }
    }

    uint64_t findFree(uint64_t t)
    {
        // Follow "next" pointers through full cycles, compressing the
        // path on the way back.
        path_.clear();
        uint64_t cur = t;
        for (;;) {
            const Cell &cell = cells_[cellIndex(cur)];
            if (cell.used < capacity_)
                break;
            path_.push_back(cur);
            cur = cell.next;
        }
        for (uint64_t p : path_)
            cells_[cellIndex(p)].next = cur;
        return cur;
    }

    void grow()
    {
        // Double until every live cell lands in a distinct slot.
        std::vector<Cell> old = std::move(cells_);
        size_t span = old.size();
        for (;;) {
            span <<= 1;
            cells_.assign(span, Cell{});
            mask_ = span - 1;
            bool clash = false;
            for (const Cell &cell : old) {
                if (cell.epoch != epoch_ || cell.used == 0 ||
                    cell.cycle < watermark_)
                    continue;
                Cell &slot = cells_[static_cast<size_t>(cell.cycle) & mask_];
                if (slot.used != 0) {
                    clash = true;
                    break;
                }
                slot = cell;
            }
            if (!clash)
                return;
        }
    }

    uint32_t capacity_ = 1;
    uint32_t epoch_ = 1; ///< Cell generation; 0 is never current.
    size_t init_span_ = 512;
    uint64_t watermark_ = 0;
    uint64_t top_ = 0; ///< Cell ring: highest cycle allocated this run.
    Cursor cur_;
    std::vector<uint64_t> occ_;  ///< Bitmap: cycle has >= 1 use.
    std::vector<uint64_t> full_; ///< Bitmap: cycle full (capacity 2).
    std::vector<Cell> cells_;
    size_t mask_ = 0;
    std::vector<uint64_t> path_;
};

} // namespace dsmem::core

#endif // DSMEM_CORE_SLOT_ALLOCATOR_H
