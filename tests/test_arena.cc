#include "mp/arena.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace dsmem::mp {
namespace {

static_assert(!std::is_copy_constructible_v<Arena>,
              "an arena owns its mapping");

/** Resident set size of this process in bytes, from /proc/self/statm. */
size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t total_pages = 0, resident_pages = 0;
    statm >> total_pages >> resident_pages;
    return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(ArenaTest, RejectsZeroSize)
{
    EXPECT_THROW(Arena(0), std::invalid_argument);
}

TEST(ArenaTest, RejectsSizeWhoseTopAddressOverflowsAddr)
{
    // The largest arena whose last byte still has a 32-bit address.
    constexpr size_t kMax =
        (size_t{std::numeric_limits<Addr>::max()} - Arena::kBaseAddr + 1) /
        Arena::kSlotBytes;
    EXPECT_THROW(Arena(kMax + 1), std::invalid_argument);
    EXPECT_THROW(Arena(size_t{1} << 40), std::invalid_argument);
    Arena a(kMax);
    a.alloc(kMax - 1);
    Addr last = a.alloc(1);
    EXPECT_EQ(last, std::numeric_limits<Addr>::max() - 7);
    EXPECT_EQ(a.loadInt(last), 0);
}

TEST(ArenaTest, HugeAllocationCannotWrapTheBoundsCheck)
{
    Arena a(16);
    a.alloc(1);
    EXPECT_THROW(a.alloc(std::numeric_limits<size_t>::max()),
                 std::length_error);
    EXPECT_THROW(a.alloc(std::numeric_limits<size_t>::max() - 1, 64),
                 std::length_error);
    EXPECT_EQ(a.usedSlots(), 1u);
    EXPECT_EQ(a.alloc(15), Arena::kBaseAddr + 8);
}

TEST(ArenaTest, ReservationIsNotResident)
{
    // The engine's default 64 MB arena must not be faulted in up front.
    size_t before = residentBytes();
    Arena a(8u << 20);
    size_t after = residentBytes();
    EXPECT_LT(after, before + (4u << 20))
        << "constructing the arena made " << (after - before)
        << " bytes resident";
}

TEST(ArenaTest, FarEndOfLargeArenaReadsZero)
{
    Arena a(8u << 20);
    a.alloc((8u << 20) - 1);
    Addr last = a.alloc(1);
    EXPECT_EQ(a.loadInt(last), 0);
    EXPECT_EQ(a.loadFloat(last), 0.0);
    a.storeFloat(last, -1.5);
    EXPECT_EQ(a.loadFloat(last), -1.5);
}

TEST(ArenaTest, BumpAllocationIsDeterministic)
{
    Arena a(1024);
    Arena b(1024);
    EXPECT_EQ(a.alloc(10), b.alloc(10));
    EXPECT_EQ(a.alloc(3), b.alloc(3));
    EXPECT_EQ(a.usedSlots(), 13u);
}

TEST(ArenaTest, AddressesAreSlotSpaced)
{
    Arena a(1024);
    Addr first = a.alloc(4);
    Addr second = a.alloc(4);
    EXPECT_EQ(first, Arena::kBaseAddr);
    EXPECT_EQ(second, first + 4 * Arena::kSlotBytes);
}

TEST(ArenaTest, AlignmentRespected)
{
    Arena a(1024);
    a.alloc(1);
    Addr aligned = a.alloc(2, 64);
    EXPECT_EQ(aligned % 64, 0u);
}

TEST(ArenaTest, RejectsBadAlignment)
{
    Arena a(64);
    EXPECT_THROW(a.alloc(1, 4), std::invalid_argument);
    EXPECT_THROW(a.alloc(1, 24), std::invalid_argument);
}

TEST(ArenaTest, ExhaustionThrows)
{
    Arena a(8);
    a.alloc(8);
    EXPECT_THROW(a.alloc(1), std::length_error);
}

TEST(ArenaTest, PaddedAllocationSeparatesLines)
{
    Arena a(1024);
    Addr first = a.allocPadded(1, 16); // 1 slot, 16 B line.
    Addr second = a.alloc(1);
    // The next allocation starts on a fresh line.
    EXPECT_GE(second - first, 16u);
}

TEST(ArenaTest, TypedLoadStoreRoundTrip)
{
    Arena a(16);
    Addr addr = a.alloc(2);
    a.storeInt(addr, -123456789);
    EXPECT_EQ(a.loadInt(addr), -123456789);
    a.storeFloat(addr + 8, 2.718281828);
    EXPECT_DOUBLE_EQ(a.loadFloat(addr + 8), 2.718281828);
    // Int and float views of the same slot share the raw bits.
    a.storeFloat(addr, 1.0);
    EXPECT_EQ(static_cast<uint64_t>(a.loadInt(addr)),
              0x3ff0000000000000ull);
}

TEST(ArenaTest, OutOfRangeAccessThrows)
{
    Arena a(16);
    Addr addr = a.alloc(2);
    EXPECT_THROW(a.loadInt(addr - 8), std::out_of_range);
    EXPECT_THROW(a.loadInt(addr + 2 * 8), std::out_of_range);
    EXPECT_THROW(a.loadInt(0), std::out_of_range);
}

TEST(ArenaArrayTest, AddressAndData)
{
    Arena a(64);
    ArenaArray<double> arr(&a, 8);
    ASSERT_TRUE(arr.valid());
    EXPECT_EQ(arr.size(), 8u);
    arr.set(3, 42.5);
    EXPECT_DOUBLE_EQ(arr.get(3), 42.5);
    EXPECT_EQ(arr.addr(1), arr.baseAddr() + 8);
}

TEST(ArenaArrayTest, IntArray)
{
    Arena a(64);
    ArenaArray<int64_t> arr(&a, 4);
    arr.set(0, -7);
    EXPECT_EQ(arr.get(0), -7);
}

TEST(ArenaArrayTest, BoundsChecked)
{
    Arena a(64);
    ArenaArray<double> arr(&a, 4);
    EXPECT_THROW(arr.addr(4), std::out_of_range);
    EXPECT_THROW(arr.get(100), std::out_of_range);
    ArenaArray<double> invalid;
    EXPECT_FALSE(invalid.valid());
    EXPECT_THROW(invalid.addr(0), std::out_of_range);
}

/** Every accessor throws the same message: the index and the size. */
TEST(ArenaArrayTest, OutOfRangeMessageNamesIndexAndSize)
{
    Arena a(64);
    ArenaArray<int64_t> arr(&a, 4);
    auto message = [](auto &&access) {
        try {
            access();
        } catch (const std::out_of_range &e) {
            return std::string(e.what());
        }
        return std::string("no throw");
    };
    EXPECT_EQ(message([&] { arr.addr(4); }),
              "ArenaArray index 4 out of range 4");
    EXPECT_EQ(message([&] { arr.get(7); }),
              "ArenaArray index 7 out of range 4");
    EXPECT_EQ(message([&] { arr.set(100, 1); }),
              "ArenaArray index 100 out of range 4");
    ArenaArray<double> invalid;
    EXPECT_EQ(message([&] { invalid.get(0); }),
              "ArenaArray index 0 out of range 0");
}

} // namespace
} // namespace dsmem::mp
