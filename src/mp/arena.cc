#include "mp/arena.h"

#include <sys/mman.h>

#include <bit>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

namespace dsmem::mp {

namespace {

/** Most slots whose byte addresses all fit in an Addr above the base. */
constexpr size_t kMaxSlots =
    (size_t{std::numeric_limits<Addr>::max()} - Arena::kBaseAddr + 1) /
    Arena::kSlotBytes;

uint64_t *
reserve(size_t max_slots)
{
    if (max_slots == 0)
        throw std::invalid_argument("Arena needs at least one slot");
    if (max_slots > kMaxSlots)
        throw std::invalid_argument(
            "Arena of " + std::to_string(max_slots) +
            " slots overflows the 32-bit address space (max " +
            std::to_string(kMaxSlots) + ")");
    void *p = mmap(nullptr, max_slots * Arena::kSlotBytes,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<uint64_t *>(p);
}

} // namespace

namespace detail {

void
throwIndexOutOfRange(size_t i, size_t count)
{
    throw std::out_of_range("ArenaArray index " + std::to_string(i) +
                            " out of range " + std::to_string(count));
}

} // namespace detail

Arena::Arena(size_t max_slots)
    : slots_(reserve(max_slots)), max_slots_(max_slots)
{
}

Arena::~Arena()
{
    munmap(slots_, max_slots_ * kSlotBytes);
}

Addr
Arena::alloc(size_t slots, Addr align_bytes)
{
    if (align_bytes < kSlotBytes || !std::has_single_bit(align_bytes))
        throw std::invalid_argument("Arena alignment must be a power of "
                                    "two >= 8");
    size_t align_slots = align_bytes / kSlotBytes;
    size_t start = (next_slot_ + align_slots - 1) & ~(align_slots - 1);
    // Compared as a remainder so a huge @p slots cannot wrap the sum.
    if (start > max_slots_ || slots > max_slots_ - start)
        throw std::length_error("Arena exhausted");
    next_slot_ = start + slots;
    return kBaseAddr + static_cast<Addr>(start) * kSlotBytes;
}

Addr
Arena::allocPadded(size_t slots, Addr line_bytes)
{
    Addr base = alloc(slots, line_bytes);
    // Round the bump pointer up so the next allocation cannot share
    // this allocation's final line.
    size_t line_slots = line_bytes / kSlotBytes;
    next_slot_ = (next_slot_ + line_slots - 1) & ~(line_slots - 1);
    if (next_slot_ > max_slots_)
        next_slot_ = max_slots_;
    return base;
}

} // namespace dsmem::mp
