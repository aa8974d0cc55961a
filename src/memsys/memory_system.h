#ifndef DSMEM_MEMSYS_MEMORY_SYSTEM_H
#define DSMEM_MEMSYS_MEMORY_SYSTEM_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "memsys/cache.h"
#include "memsys/config.h"
#include "memsys/dram.h"

namespace dsmem::memsys {

/** Classification of a completed cache access. */
enum class AccessKind : uint8_t {
    HIT,           ///< Serviced by the local cache.
    READ_MISS,     ///< Load missed; line fetched.
    WRITE_MISS,    ///< Store missed; line fetched MODIFIED.
    WRITE_UPGRADE, ///< Store to a SHARED line; ownership acquired.
};

/** Result of one memory access, including the latency annotation. */
struct AccessResult {
    AccessKind kind = AccessKind::HIT;
    uint32_t latency = 1;       ///< Cycles for the access to complete.
    uint32_t invalidations = 0; ///< Remote copies invalidated.

    /**
     * The line fetch was handed to the banked DRAM model instead of
     * completing synchronously: `latency` is provisional (a read's
     * real latency is known only at its DRAM completion, which the
     * engine waits for; a store's annotation is patched there).
     */
    bool deferred = false;

    bool isMiss() const { return kind != AccessKind::HIT; }

    /** A store counts as a write miss whenever ownership is fetched. */
    bool isWriteMiss() const
    {
        return kind == AccessKind::WRITE_MISS ||
            kind == AccessKind::WRITE_UPGRADE;
    }
};

/** Per-processor reference statistics (feeds the paper's Table 1). */
struct CacheStats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_misses = 0;
    uint64_t write_misses = 0;
    uint64_t invalidations_received = 0;
    uint64_t writebacks = 0;
    uint64_t contention_cycles = 0; ///< Bank-queueing delay incurred.

    /**
     * Banked-DRAM accounting (all zero unless MemoryConfig::dram is
     * enabled; folded in from the DramModel when a run finishes).
     */
    DramAccessStats dram;
};

/**
 * The shared-memory multiprocessor cache hierarchy.
 *
 * Per-processor direct-mapped write-back caches kept coherent by a
 * full-bit-vector directory running an invalidation protocol — the
 * paper's MSI by default, or MESI (an extension) where a read miss
 * with no other sharers installs the line Exclusive so a subsequent
 * local store upgrades silently.
 *
 * Matching the paper's assumptions (Section 3.2), transactions are
 * atomic with a fixed latency by default; the optional bank model
 * (MemoryConfig::banks) adds memory-module queueing delays, using
 * the access timestamps the caller supplies.
 */
class MemorySystem
{
  public:
    MemorySystem(uint32_t num_procs, const CacheConfig &cache_config,
                 const MemoryConfig &mem_config);

    /**
     * Processor @p proc loads from @p addr at global time @p now.
     *
     * The tag-check hit path is inline (one lookup, no protocol
     * action): phase-1 generation issues millions of references and
     * the overwhelming majority hit, so only misses pay an
     * out-of-line call into the directory machinery.
     */
    AccessResult read(uint32_t proc, Addr addr, uint64_t now = 0)
    {
        Cache &cache = *caches_[proc];
        ++stats_[proc].reads;
        if (cache.lookup(addr) != LineState::INVALID)
            return {AccessKind::HIT, mem_config_.hit_latency, 0};
        return readMiss(cache, proc, addr, now);
    }

    /**
     * Processor @p proc stores to @p addr at global time @p now.
     * With the DRAM model active, a deferred write miss carries
     * @p trace_tag through to its DRAM completion so the engine can
     * patch the store's latency annotation (DramModel::kNoTag when
     * the caller doesn't need the completion).
     */
    AccessResult write(uint32_t proc, Addr addr, uint64_t now = 0,
                       uint64_t trace_tag = DramModel::kNoTag)
    {
        Cache &cache = *caches_[proc];
        ++stats_[proc].writes;
        LineState state = cache.lookup(addr);
        if (state == LineState::MODIFIED)
            return {AccessKind::HIT, mem_config_.hit_latency, 0};
        if (state == LineState::EXCLUSIVE) {
            // MESI silent upgrade: sole clean copy, no transaction.
            cache.setState(cache.lineAddr(addr), LineState::MODIFIED);
            return {AccessKind::HIT, mem_config_.hit_latency, 0};
        }
        return writeMiss(cache, proc, addr, state, now, trace_tag);
    }

    uint32_t numProcs() const { return static_cast<uint32_t>(caches_.size()); }
    const CacheStats &stats(uint32_t proc) const { return stats_.at(proc); }
    const Cache &cache(uint32_t proc) const { return *caches_.at(proc); }

    /** The banked DRAM model, or null when dram.banks == 0. */
    DramModel *dram() { return dram_.get(); }
    const DramModel *dram() const { return dram_.get(); }

    /** Per-bank DRAM summary (empty banks when the model is off). */
    DramSummary dramSummary() const
    {
        return dram_ ? dram_->summary() : DramSummary{};
    }

    /**
     * Fold the DramModel's per-processor accounting into CacheStats.
     * The engine calls this once when a run finishes; a no-op without
     * the DRAM model.
     */
    void finalizeDramStats();

    /** Aggregate statistics across all processors. */
    CacheStats totalStats() const;

    /** Lines one directory page covers. */
    static constexpr unsigned kDirPageBits = 12;
    static constexpr size_t kDirPageLines = size_t{1} << kDirPageBits;

    /** Directory pages allocated so far (one per touched line span). */
    size_t directoryPages() const { return dir_pages_allocated_; }

  private:
    /** Load miss: fetch, downgrade remote E/M, install, track. */
    AccessResult readMiss(Cache &cache, uint32_t proc, Addr addr,
                          uint64_t now);

    /** Store miss or SHARED upgrade: invalidate, install/upgrade. */
    AccessResult writeMiss(Cache &cache, uint32_t proc, Addr addr,
                           LineState state, uint64_t now,
                           uint64_t trace_tag = DramModel::kNoTag);

    /**
     * Directory entry: which caches hold the line, and who owns it.
     * An entry with no sharers is an absent line: every path that
     * empties `sharers` also clears `owner`.
     */
    struct DirEntry {
        uint32_t sharers = 0; ///< Bit per processor.
        int32_t owner = -1;   ///< Holder of an E/M copy, or -1.
    };

    /** One directory page: the entries of kDirPageLines lines. */
    struct DirPage {
        std::array<DirEntry, kDirPageLines> entries;
    };

    /** Directory entry for @p line, its page allocated on demand. */
    DirEntry &dirEntry(Addr line)
    {
        const size_t index = line >> line_shift_;
        const size_t page = index >> kDirPageBits;
        if (page >= dir_pages_.size() || !dir_pages_[page]) [[unlikely]]
            allocDirPage(page);
        return dir_pages_[page]->entries[index & (kDirPageLines - 1)];
    }

    /** Directory entry for @p line, or null when its page is absent. */
    DirEntry *findDirEntry(Addr line)
    {
        const size_t index = line >> line_shift_;
        const size_t page = index >> kDirPageBits;
        if (page >= dir_pages_.size() || !dir_pages_[page])
            return nullptr;
        return &dir_pages_[page]->entries[index & (kDirPageLines - 1)];
    }

    void allocDirPage(size_t page);

    /** Remove @p proc from the sharer set of @p line. */
    void dropSharer(Addr line, uint32_t proc);

    /** Handle a victim eviction from @p proc's cache at @p now. */
    void handleEviction(uint32_t proc, Addr victim_line, bool dirty,
                        uint64_t now);

    /** Invalidate all remote copies of @p line; returns the count. */
    uint32_t invalidateRemote(Addr line, uint32_t requester,
                              uint64_t now);

    /**
     * Queue a coherence writeback (eviction of a dirty victim, or a
     * downgrade/invalidation of a MODIFIED remote copy) at the DRAM:
     * fire-and-forget write traffic attributed to the processor whose
     * copy drains. A no-op without the DRAM model — the paper's
     * fixed-latency memory absorbs writebacks for free.
     */
    void enqueueWriteback(uint32_t proc, Addr line, uint64_t now);

    /**
     * Miss latency including any bank-queueing delay at @p now;
     * records contention cycles against @p proc.
     */
    uint32_t missLatency(uint32_t proc, Addr line, uint64_t now);

    MemoryConfig mem_config_;
    std::vector<std::unique_ptr<Cache>> caches_;
    std::vector<CacheStats> stats_;
    /**
     * The coherence directory, direct-indexed by line number
     * (`line >> line_shift_`): a page table of DirPages, each
     * allocated on the first touch of its span of kDirPageLines
     * lines. A lookup is two array indexes, no hashing, and a sparse
     * address costs one page.
     */
    std::vector<std::unique_ptr<DirPage>> dir_pages_;
    size_t dir_pages_allocated_ = 0;
    std::vector<uint64_t> bank_free_;
    std::unique_ptr<DramModel> dram_; ///< Null when dram.banks == 0.
    uint32_t line_bytes_ = 0;         ///< For DRAM line indexing.
    uint32_t line_shift_ = 0;         ///< log2(line_bytes_).
};

} // namespace dsmem::memsys

#endif // DSMEM_MEMSYS_MEMORY_SYSTEM_H
