#ifndef DSMEM_MP_ARENA_H
#define DSMEM_MP_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "trace/instruction.h"

namespace dsmem::mp {

using trace::Addr;

/**
 * Deterministic shared-memory arena.
 *
 * The simulated shared address space is a flat array of 8-byte slots.
 * Allocation is bump-pointer, so simulated addresses depend only on
 * allocation order — never on the host allocator or ASLR — which keeps
 * cache indexing (and therefore every miss count in the paper's
 * tables) bit-reproducible across runs.
 *
 * Each slot stores one 64-bit payload, read and written through the
 * DSL as either an integer or a double. Addresses are byte-granular
 * so cache-line geometry (16-byte lines = 2 slots) behaves naturally.
 *
 * The slots live in one anonymous mapping reserved at construction
 * and released at destruction. The kernel zero-fills a page on first
 * touch, so @p max_slots only reserves address space: resident memory
 * and zeroing time follow the slots an app actually uses. The arena
 * owns that mapping and is therefore not copyable.
 */
class Arena
{
  public:
    /** Size of one slot in bytes. */
    static constexpr Addr kSlotBytes = 8;

    /** Base of the simulated address space (0 is reserved). */
    static constexpr Addr kBaseAddr = 0x1000;

    /**
     * Reserve @p max_slots slots. Throws std::invalid_argument when
     * @p max_slots is zero or the top slot's address would not fit in
     * an Addr.
     */
    explicit Arena(size_t max_slots);
    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p slots consecutive 8-byte slots, optionally aligned
     * to @p align_bytes (power of two, >= 8). Returns the simulated
     * byte address of the first slot.
     */
    Addr alloc(size_t slots, Addr align_bytes = kSlotBytes);

    /**
     * Allocate with cache-line padding: rounds the allocation up so
     * the next allocation starts on a fresh @p line_bytes boundary.
     * Apps use this for per-processor data to avoid false sharing
     * where the original programs padded.
     */
    Addr allocPadded(size_t slots, Addr line_bytes = 16);

    /** Number of slots currently allocated. */
    size_t usedSlots() const { return next_slot_; }

    /** Raw payload of the slot holding @p addr. */
    uint64_t &raw(Addr addr) { return slots_[slotIndex(addr)]; }
    const uint64_t &raw(Addr addr) const { return slots_[slotIndex(addr)]; }

    /**
     * Typed accessors over a slot's payload. Defined inline: the
     * engine touches the arena once per simulated memory operation,
     * millions of times per run, and an out-of-line call chain
     * (accessor -> raw -> slotIndex) shows up in generation profiles.
     */
    int64_t loadInt(Addr addr) const
    {
        return static_cast<int64_t>(raw(addr));
    }

    double loadFloat(Addr addr) const
    {
        double out;
        uint64_t bits = raw(addr);
        std::memcpy(&out, &bits, sizeof(out));
        return out;
    }

    void storeInt(Addr addr, int64_t value)
    {
        raw(addr) = static_cast<uint64_t>(value);
    }

    void storeFloat(Addr addr, double value)
    {
        uint64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        raw(addr) = bits;
    }

  private:
    size_t slotIndex(Addr addr) const
    {
        if (addr < kBaseAddr)
            throw std::out_of_range("arena address below base");
        size_t idx = (addr - kBaseAddr) / kSlotBytes;
        if (idx >= next_slot_)
            throw std::out_of_range("arena address past allocation");
        return idx;
    }

    uint64_t *slots_;
    size_t max_slots_;
    size_t next_slot_ = 0;
};

/**
 * A typed, bounds-checked view of consecutive arena slots.
 *
 * Element addresses are what applications hand to the DSL; element
 * payloads are real data living in the arena.
 */
template <typename T>
class ArenaArray
{
    static_assert(std::is_same_v<T, int64_t> || std::is_same_v<T, double>,
                  "arena arrays hold 8-byte ints or doubles");

  public:
    ArenaArray() = default;

    ArenaArray(Arena *arena, size_t count, bool padded = false)
        : arena_(arena), count_(count)
    {
        base_ = padded ? arena->allocPadded(count) : arena->alloc(count);
    }

    /** Simulated address of element @p i. */
    Addr addr(size_t i) const
    {
        checkIndex(i);
        return base_ + static_cast<Addr>(i) * Arena::kSlotBytes;
    }

    /** Direct (untimed) read — for setup and result verification. */
    T get(size_t i) const
    {
        // addr() is the bounds check; it runs before arena_ is used,
        // which is null in a default-constructed array.
        const Addr a = addr(i);
        if constexpr (std::is_same_v<T, double>)
            return arena_->loadFloat(a);
        else
            return arena_->loadInt(a);
    }

    /** Direct (untimed) write — for setup code only. */
    void set(size_t i, T value)
    {
        const Addr a = addr(i); // Bounds check first, as in get().
        if constexpr (std::is_same_v<T, double>)
            arena_->storeFloat(a, value);
        else
            arena_->storeInt(a, value);
    }

    size_t size() const { return count_; }
    Addr baseAddr() const { return base_; }
    bool valid() const { return arena_ != nullptr; }

  private:
    void checkIndex(size_t i) const;

    Arena *arena_ = nullptr;
    Addr base_ = 0;
    size_t count_ = 0;
};

namespace detail {

/**
 * The out-of-range throw of ArenaArray's bounds check, kept out of
 * line so the check itself inlines into the DSL hot path.
 */
[[noreturn, gnu::cold]] void throwIndexOutOfRange(size_t i, size_t count);

} // namespace detail

template <typename T>
void
ArenaArray<T>::checkIndex(size_t i) const
{
    if (arena_ == nullptr || i >= count_) [[unlikely]]
        detail::throwIndexOutOfRange(i, count_);
}

} // namespace dsmem::mp

#endif // DSMEM_MP_ARENA_H
