#include "memsys/memory_system.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "apps/rng.h"

namespace dsmem::memsys {
namespace {

// ---------------------------------------------------------------------
// CacheConfig / Cache
// ---------------------------------------------------------------------

TEST(CacheConfigTest, Validity)
{
    CacheConfig ok;
    EXPECT_TRUE(ok.valid());
    EXPECT_EQ(ok.numLines(), 4096u);

    CacheConfig bad = {60000, 16};
    EXPECT_FALSE(bad.valid());
    bad = {65536, 0};
    EXPECT_FALSE(bad.valid());
    bad = {16, 64};
    EXPECT_FALSE(bad.valid());
}

TEST(CacheTest, RejectsInvalidConfig)
{
    EXPECT_THROW(Cache(CacheConfig{100, 16}), std::invalid_argument);
}

TEST(CacheTest, LookupInstallInvalidate)
{
    Cache cache(CacheConfig{256, 16}); // 16 lines.
    EXPECT_EQ(cache.lookup(0x40), LineState::INVALID);

    cache.install(0x40, LineState::SHARED, nullptr, nullptr);
    EXPECT_EQ(cache.lookup(0x40), LineState::SHARED);
    EXPECT_EQ(cache.lookup(0x4f), LineState::SHARED); // Same line.
    EXPECT_EQ(cache.lookup(0x50), LineState::INVALID);

    cache.setState(0x40, LineState::MODIFIED);
    EXPECT_TRUE(cache.isDirty(0x44));

    cache.invalidate(0x40);
    EXPECT_EQ(cache.lookup(0x40), LineState::INVALID);
}

TEST(CacheTest, DirectMappedEviction)
{
    Cache cache(CacheConfig{256, 16}); // 16 lines; 0x40 and 0x140 alias.
    cache.install(0x40, LineState::MODIFIED, nullptr, nullptr);

    Addr victim = 0;
    bool dirty = false;
    bool evicted = cache.install(0x140, LineState::SHARED, &victim,
                                 &dirty);
    EXPECT_TRUE(evicted);
    EXPECT_EQ(victim, 0x40u);
    EXPECT_TRUE(dirty);
    EXPECT_EQ(cache.lookup(0x40), LineState::INVALID);
    EXPECT_EQ(cache.lookup(0x140), LineState::SHARED);
}

TEST(CacheTest, ReinstallSameLineNoEviction)
{
    Cache cache(CacheConfig{256, 16});
    cache.install(0x40, LineState::SHARED, nullptr, nullptr);
    Addr victim = 0;
    bool dirty = false;
    EXPECT_FALSE(cache.install(0x40, LineState::MODIFIED, &victim,
                               &dirty));
    EXPECT_EQ(cache.lookup(0x40), LineState::MODIFIED);
}

TEST(CacheTest, ValidLineCount)
{
    Cache cache(CacheConfig{256, 16});
    EXPECT_EQ(cache.validLineCount(), 0u);
    cache.install(0x00, LineState::SHARED, nullptr, nullptr);
    cache.install(0x10, LineState::SHARED, nullptr, nullptr);
    EXPECT_EQ(cache.validLineCount(), 2u);
}

// ---------------------------------------------------------------------
// MemorySystem / MSI protocol
// ---------------------------------------------------------------------

class MemorySystemTest : public ::testing::Test
{
  protected:
    MemorySystemTest() : mem_(4, CacheConfig{256, 16}, MemoryConfig{}) {}

    MemorySystem mem_;
};

TEST_F(MemorySystemTest, ColdReadMissesThenHits)
{
    AccessResult r = mem_.read(0, 0x40);
    EXPECT_EQ(r.kind, AccessKind::READ_MISS);
    EXPECT_EQ(r.latency, 50u);

    r = mem_.read(0, 0x48); // Same line.
    EXPECT_EQ(r.kind, AccessKind::HIT);
    EXPECT_EQ(r.latency, 1u);

    EXPECT_EQ(mem_.stats(0).reads, 2u);
    EXPECT_EQ(mem_.stats(0).read_misses, 1u);
}

TEST_F(MemorySystemTest, SharedReadersBothCache)
{
    mem_.read(0, 0x40);
    AccessResult r = mem_.read(1, 0x40);
    EXPECT_EQ(r.kind, AccessKind::READ_MISS);
    EXPECT_EQ(mem_.read(0, 0x40).kind, AccessKind::HIT);
    EXPECT_EQ(mem_.read(1, 0x40).kind, AccessKind::HIT);
}

TEST_F(MemorySystemTest, WriteMissThenWriteHit)
{
    AccessResult w = mem_.write(0, 0x40);
    EXPECT_EQ(w.kind, AccessKind::WRITE_MISS);
    EXPECT_TRUE(w.isWriteMiss());
    EXPECT_EQ(mem_.write(0, 0x44).kind, AccessKind::HIT);
}

TEST_F(MemorySystemTest, WriteUpgradeInvalidatesSharers)
{
    mem_.read(0, 0x40);
    mem_.read(1, 0x40);
    mem_.read(2, 0x40);

    AccessResult w = mem_.write(0, 0x40);
    EXPECT_EQ(w.kind, AccessKind::WRITE_UPGRADE);
    EXPECT_TRUE(w.isWriteMiss());
    EXPECT_EQ(w.invalidations, 2u);
    EXPECT_EQ(mem_.stats(1).invalidations_received, 1u);
    EXPECT_EQ(mem_.stats(2).invalidations_received, 1u);

    // The writer now owns the line and hits.
    EXPECT_EQ(mem_.write(0, 0x40).kind, AccessKind::HIT);
    // The sharers must re-miss; that read downgrades the owner, so a
    // subsequent write by P0 is an ownership upgrade again.
    EXPECT_EQ(mem_.read(1, 0x40).kind, AccessKind::READ_MISS);
    EXPECT_EQ(mem_.write(0, 0x40).kind, AccessKind::WRITE_UPGRADE);
}

TEST_F(MemorySystemTest, RemoteWriteInvalidatesOwner)
{
    mem_.write(0, 0x40); // P0 MODIFIED.
    AccessResult w = mem_.write(1, 0x40);
    EXPECT_EQ(w.kind, AccessKind::WRITE_MISS);
    EXPECT_EQ(w.invalidations, 1u);
    // P0's dirty copy was (implicitly) written back.
    EXPECT_GE(mem_.stats(0).writebacks, 1u);
    EXPECT_EQ(mem_.read(0, 0x40).kind, AccessKind::READ_MISS);
}

TEST_F(MemorySystemTest, ReadDowngradesRemoteModified)
{
    mem_.write(0, 0x40); // P0 MODIFIED.
    AccessResult r = mem_.read(1, 0x40);
    EXPECT_EQ(r.kind, AccessKind::READ_MISS);
    EXPECT_GE(mem_.stats(0).writebacks, 1u);
    // Both now share: P0 read hits, but P0 write must upgrade.
    EXPECT_EQ(mem_.read(0, 0x40).kind, AccessKind::HIT);
    EXPECT_EQ(mem_.write(0, 0x40).kind, AccessKind::WRITE_UPGRADE);
}

TEST_F(MemorySystemTest, DirtyEvictionWritesBack)
{
    mem_.write(0, 0x40);
    // 0x140 aliases 0x40 in a 256 B cache.
    mem_.read(0, 0x140);
    EXPECT_GE(mem_.stats(0).writebacks, 1u);
    EXPECT_EQ(mem_.read(0, 0x40).kind, AccessKind::READ_MISS);
}

TEST_F(MemorySystemTest, EvictionUpdatesDirectory)
{
    mem_.read(0, 0x40);
    mem_.read(0, 0x140); // Evicts 0x40 from P0.
    // P1 writing 0x40 should not need to invalidate P0.
    AccessResult w = mem_.write(1, 0x40);
    EXPECT_EQ(w.invalidations, 0u);
}

TEST_F(MemorySystemTest, TotalStatsAggregates)
{
    mem_.read(0, 0x40);
    mem_.read(1, 0x80);
    mem_.write(2, 0xc0);
    CacheStats total = mem_.totalStats();
    EXPECT_EQ(total.reads, 2u);
    EXPECT_EQ(total.writes, 1u);
    EXPECT_EQ(total.read_misses, 2u);
    EXPECT_EQ(total.write_misses, 1u);
}

TEST(MemorySystemConfigTest, RejectsBadProcCount)
{
    EXPECT_THROW(MemorySystem(0, CacheConfig{}, MemoryConfig{}),
                 std::invalid_argument);
    EXPECT_THROW(MemorySystem(33, CacheConfig{}, MemoryConfig{}),
                 std::invalid_argument);
}

TEST(MemorySystemConfigTest, CustomLatency)
{
    MemorySystem mem(2, CacheConfig{}, MemoryConfig{1, 100});
    EXPECT_EQ(mem.read(0, 0x40).latency, 100u);
    EXPECT_EQ(mem.read(0, 0x40).latency, 1u);
}

/**
 * Property test: after any access sequence, the MSI single-writer
 * invariant holds — at most one cache holds a line MODIFIED, and if
 * one does, no other cache holds it at all.
 */
class MsiInvariantTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(MsiInvariantTest, SingleWriterInvariant)
{
    constexpr uint32_t kProcs = 8;
    MemorySystem mem(kProcs, CacheConfig{512, 16}, MemoryConfig{});
    apps::Rng rng(GetParam());

    std::vector<Addr> lines;
    for (Addr a = 0; a < 16; ++a)
        lines.push_back(a * 16);

    for (int i = 0; i < 5000; ++i) {
        uint32_t proc = static_cast<uint32_t>(rng.below(kProcs));
        Addr addr = lines[rng.below(lines.size())];
        if (rng.below(2))
            mem.read(proc, addr);
        else
            mem.write(proc, addr);

        for (Addr line : lines) {
            int modified = 0;
            int valid = 0;
            for (uint32_t p = 0; p < kProcs; ++p) {
                LineState s = mem.cache(p).lookup(line);
                if (s != LineState::INVALID)
                    ++valid;
                if (s == LineState::MODIFIED)
                    ++modified;
            }
            ASSERT_LE(modified, 1);
            if (modified == 1) {
                ASSERT_EQ(valid, 1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsiInvariantTest,
                         ::testing::Values(1, 2, 3, 42, 1234));

// ---------------------------------------------------------------------
// The direct-indexed coherence directory
// ---------------------------------------------------------------------

/**
 * Directory property test over (protocol, line_bytes): a low line and
 * the top line of the 32-bit space share one system, each with a
 * partner that maps to the same cache set, so random traffic keeps
 * evicting, re-installing and invalidating lines whose directory
 * entries emptied. After every access the coherence invariants hold
 * and each write's invalidation count equals the remote copies the
 * directory should have tracked.
 */
class DirectoryInvariantTest
    : public ::testing::TestWithParam<std::tuple<Protocol, uint32_t>>
{};

TEST_P(DirectoryInvariantTest, LowAndTopLinesStayCoherent)
{
    const auto [protocol, line_bytes] = GetParam();
    constexpr uint32_t kProcs = 4;
    constexpr uint32_t kCacheBytes = 1024;
    MemoryConfig mc;
    mc.protocol = protocol;
    MemorySystem mem(kProcs, CacheConfig{kCacheBytes, line_bytes}, mc);
    const Addr top = 0xFFFFFFF0u & ~(line_bytes - 1);
    const std::vector<Addr> lines = {0x1000, 0x1000 + kCacheBytes, top,
                                     top - kCacheBytes};
    apps::Rng rng(line_bytes * 7 + static_cast<uint64_t>(protocol));

    auto copies = [&](Addr line, uint32_t except) {
        uint32_t n = 0;
        for (uint32_t p = 0; p < kProcs; ++p)
            if (p != except &&
                mem.cache(p).lookup(line) != LineState::INVALID)
                ++n;
        return n;
    };

    for (int i = 0; i < 4000; ++i) {
        const uint32_t proc = static_cast<uint32_t>(rng.below(kProcs));
        const Addr line = lines[rng.below(lines.size())];
        // Any byte of the line addresses it.
        const Addr addr = line + static_cast<Addr>(rng.below(line_bytes));
        if (rng.below(2)) {
            const bool miss =
                mem.cache(proc).lookup(line) == LineState::INVALID;
            const uint32_t others = copies(line, proc);
            mem.read(proc, addr);
            if (miss && protocol == Protocol::MESI) {
                ASSERT_EQ(mem.cache(proc).lookup(line),
                          others == 0 ? LineState::EXCLUSIVE
                                      : LineState::SHARED);
            }
        } else {
            const uint32_t others = copies(line, proc);
            AccessResult w = mem.write(proc, addr);
            ASSERT_EQ(w.invalidations, others);
            ASSERT_EQ(mem.cache(proc).lookup(line), LineState::MODIFIED);
        }
        for (Addr l : lines) {
            uint32_t owned = 0;
            for (uint32_t p = 0; p < kProcs; ++p) {
                LineState s = mem.cache(p).lookup(l);
                if (s == LineState::MODIFIED || s == LineState::EXCLUSIVE)
                    ++owned;
            }
            ASSERT_LE(owned, 1u);
            if (owned == 1) {
                ASSERT_EQ(copies(l, kProcs), 1u);
            }
        }
    }
    // Two spans touched: the one holding 0x1000 (and its set partner)
    // and the top one.
    EXPECT_EQ(mem.directoryPages(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAndLines, DirectoryInvariantTest,
    ::testing::Combine(::testing::Values(Protocol::MSI, Protocol::MESI),
                       ::testing::Values(16u, 32u, 64u)));

/** An entry whose last sharer left acts exactly like an absent one. */
TEST(DirectoryTest, EmptiedEntryBehavesAbsent)
{
    for (Protocol protocol : {Protocol::MSI, Protocol::MESI}) {
        MemoryConfig mc;
        mc.protocol = protocol;
        MemorySystem mem(2, CacheConfig{256, 16}, mc);
        const Addr a = 0xFFFFFFF0;
        const Addr conflict = a - 256; // Same direct-mapped set.

        // P0 owns the line, then evicts it: the entry empties.
        mem.write(0, a);
        mem.read(0, conflict);
        ASSERT_EQ(mem.cache(0).lookup(a), LineState::INVALID);
        EXPECT_EQ(mem.stats(0).writebacks, 1u);

        // No stale owner or sharer: P1's read downgrades nobody and
        // (MESI) installs Exclusive; its write invalidates nobody.
        mem.read(1, a);
        EXPECT_EQ(mem.cache(1).lookup(a), protocol == Protocol::MESI
                      ? LineState::EXCLUSIVE
                      : LineState::SHARED);
        EXPECT_EQ(mem.stats(0).writebacks, 1u);
        EXPECT_EQ(mem.write(1, a).invalidations, 0u);

        // Re-install at P0: the re-filled entry tracks P1 again.
        mem.read(0, a);
        EXPECT_EQ(mem.cache(1).lookup(a), LineState::SHARED);
        EXPECT_EQ(mem.stats(1).writebacks, 1u);
        EXPECT_EQ(mem.write(0, a).invalidations, 1u);
        EXPECT_EQ(mem.cache(1).lookup(a), LineState::INVALID);
        EXPECT_EQ(mem.stats(1).invalidations_received, 1u);
    }
}

/** One directory page per touched span of kDirPageLines lines. */
TEST(DirectoryTest, AllocatesOnePagePerTouchedSpan)
{
    for (uint32_t line_bytes : {16u, 32u, 64u}) {
        SCOPED_TRACE(line_bytes);
        MemorySystem mem(2, CacheConfig{1024, line_bytes}, MemoryConfig{});
        const Addr span = static_cast<Addr>(MemorySystem::kDirPageLines *
                                            line_bytes);
        EXPECT_EQ(mem.directoryPages(), 0u);
        mem.read(0, 0x1000);
        EXPECT_EQ(mem.directoryPages(), 1u);
        mem.write(1, 0x1000 + 100 * line_bytes); // Same span.
        mem.read(0, span - line_bytes);          // Its last line.
        EXPECT_EQ(mem.directoryPages(), 1u);
        mem.read(0, span); // First line of the next span.
        EXPECT_EQ(mem.directoryPages(), 2u);
        mem.read(1, 0xFFFFFFF0); // Sparse: one page, not the gap.
        EXPECT_EQ(mem.directoryPages(), 3u);
        mem.write(0, 0xFFFFFFF0);
        EXPECT_EQ(mem.directoryPages(), 3u);
    }
}

} // namespace
} // namespace dsmem::memsys
