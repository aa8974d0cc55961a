#include "memsys/memory_system.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace dsmem::memsys {

MemorySystem::MemorySystem(uint32_t num_procs,
                           const CacheConfig &cache_config,
                           const MemoryConfig &mem_config)
    : mem_config_(mem_config)
{
    if (num_procs == 0 || num_procs > 32)
        throw std::invalid_argument("MemorySystem supports 1..32 procs");
    caches_.reserve(num_procs);
    for (uint32_t p = 0; p < num_procs; ++p)
        caches_.push_back(std::make_unique<Cache>(cache_config));
    stats_.resize(num_procs);
    line_bytes_ = cache_config.line_bytes;
    line_shift_ = static_cast<uint32_t>(std::countr_zero(line_bytes_));
    if (mem_config.banks > 0)
        bank_free_.assign(mem_config.banks, 0);
    if (mem_config.dram.enabled()) {
        if (mem_config.banks > 0)
            throw std::invalid_argument(
                "the toy bank model (banks > 0) and the DRAM model "
                "(dram.banks > 0) are mutually exclusive");
        if (!mem_config.dram.valid(line_bytes_))
            throw std::invalid_argument("invalid DramConfig");
        dram_ = std::make_unique<DramModel>(mem_config.dram,
                                            line_bytes_, num_procs);
    }
}

void
MemorySystem::allocDirPage(size_t page)
{
    if (page >= dir_pages_.size())
        dir_pages_.resize(page + 1);
    dir_pages_[page] = std::make_unique<DirPage>();
    ++dir_pages_allocated_;
}

void
MemorySystem::dropSharer(Addr line, uint32_t proc)
{
    DirEntry *entry = findDirEntry(line);
    if (entry == nullptr)
        return;
    entry->sharers &= ~(1u << proc);
    if (entry->owner == static_cast<int32_t>(proc) || entry->sharers == 0)
        entry->owner = -1;
}

void
MemorySystem::enqueueWriteback(uint32_t proc, Addr line, uint64_t now)
{
    if (dram_)
        dram_->enqueue(proc, line / line_bytes_, false, now,
                       DramModel::kNoTag);
}

void
MemorySystem::handleEviction(uint32_t proc, Addr victim_line,
                             bool dirty, uint64_t now)
{
    if (dirty) {
        ++stats_[proc].writebacks;
        enqueueWriteback(proc, victim_line, now);
    }
    dropSharer(victim_line, proc);
}

uint32_t
MemorySystem::invalidateRemote(Addr line, uint32_t requester,
                               uint64_t now)
{
    DirEntry *entry = findDirEntry(line);
    if (entry == nullptr)
        return 0;
    uint32_t invalidated = 0;
    uint32_t sharers = entry->sharers;
    for (uint32_t p = 0; p < numProcs(); ++p) {
        if (p == requester || (sharers & (1u << p)) == 0)
            continue;
        // A MODIFIED remote copy is implicitly written back as part
        // of the ownership transfer; an EXCLUSIVE copy is clean.
        if (caches_[p]->lookup(line) == LineState::MODIFIED) {
            ++stats_[p].writebacks;
            enqueueWriteback(p, line, now);
        }
        caches_[p]->invalidate(line);
        ++stats_[p].invalidations_received;
        ++invalidated;
    }
    entry->sharers &= (1u << requester);
    entry->owner = -1;
    return invalidated;
}

uint32_t
MemorySystem::missLatency(uint32_t proc, Addr line, uint64_t now)
{
    uint32_t latency = mem_config_.miss_latency;
    if (mem_config_.banks > 0) {
        size_t bank = (line / caches_[0]->config().line_bytes) %
            mem_config_.banks;
        uint64_t start = std::max(bank_free_[bank], now);
        uint32_t queue_delay = static_cast<uint32_t>(start - now);
        latency += queue_delay;
        stats_[proc].contention_cycles += queue_delay;
        bank_free_[bank] = start + mem_config_.bank_occupancy;
    }
    return latency;
}

AccessResult
MemorySystem::readMiss(Cache &cache, uint32_t proc, Addr addr,
                       uint64_t now)
{
    Addr line = cache.lineAddr(addr);
    ++stats_[proc].read_misses;
    uint32_t latency = missLatency(proc, line, now);

    // Downgrade a remote E/M copy to SHARED (writeback if dirty).
    DirEntry &entry = dirEntry(line);
    bool had_copies = entry.sharers != 0;
    if (entry.owner >= 0 && entry.owner != static_cast<int32_t>(proc)) {
        uint32_t owner = static_cast<uint32_t>(entry.owner);
        if (caches_[owner]->lookup(line) == LineState::MODIFIED) {
            ++stats_[owner].writebacks;
            enqueueWriteback(owner, line, now);
        }
        caches_[owner]->setState(line, LineState::SHARED);
        entry.owner = -1;
    }

    // MESI: a read miss with no other cached copy installs Exclusive.
    LineState install_state = LineState::SHARED;
    if (mem_config_.protocol == Protocol::MESI && !had_copies)
        install_state = LineState::EXCLUSIVE;

    Addr victim = 0;
    bool victim_dirty = false;
    if (cache.install(line, install_state, &victim, &victim_dirty))
        handleEviction(proc, victim, victim_dirty, now);
    entry.sharers |= (1u << proc);
    if (install_state == LineState::EXCLUSIVE)
        entry.owner = static_cast<int32_t>(proc);

    if (dram_) {
        // The coherence transaction commits now (directory state is
        // global time, like today); the line *fetch* is a DRAM read
        // request the engine waits on. Tag = proc: blocking reads
        // mean at most one outstanding read per processor.
        dram_->enqueue(proc, line / line_bytes_, true, now, proc);
        return {AccessKind::READ_MISS, 0, 0, true};
    }
    return {AccessKind::READ_MISS, latency, 0};
}

AccessResult
MemorySystem::writeMiss(Cache &cache, uint32_t proc, Addr addr,
                        LineState state, uint64_t now,
                        uint64_t trace_tag)
{
    Addr line = cache.lineAddr(addr);
    ++stats_[proc].write_misses;
    uint32_t latency = missLatency(proc, line, now);
    uint32_t invalidations = invalidateRemote(line, proc, now);

    if (state == LineState::SHARED) {
        // Ownership upgrade: line already resident, no line fetch —
        // the directory round-trip keeps its fixed cost even under
        // the DRAM model.
        cache.setState(line, LineState::MODIFIED);
        DirEntry &entry = dirEntry(line);
        entry.sharers |= (1u << proc);
        entry.owner = static_cast<int32_t>(proc);
        return {AccessKind::WRITE_UPGRADE, latency, invalidations};
    }

    Addr victim = 0;
    bool victim_dirty = false;
    if (cache.install(line, LineState::MODIFIED, &victim, &victim_dirty))
        handleEviction(proc, victim, victim_dirty, now);
    DirEntry &entry = dirEntry(line);
    entry.sharers |= (1u << proc);
    entry.owner = static_cast<int32_t>(proc);

    if (dram_) {
        // Fire-and-forget under the write buffer: the processor
        // continues; the annotation (provisionally miss_latency) is
        // patched with the real value at the DRAM completion.
        dram_->enqueue(proc, line / line_bytes_, false, now, trace_tag);
        return {AccessKind::WRITE_MISS, latency, invalidations, true};
    }
    return {AccessKind::WRITE_MISS, latency, invalidations};
}

void
MemorySystem::finalizeDramStats()
{
    if (!dram_)
        return;
    for (uint32_t p = 0; p < numProcs(); ++p)
        stats_[p].dram = dram_->procStats(p);
}

CacheStats
MemorySystem::totalStats() const
{
    CacheStats total;
    for (const CacheStats &s : stats_) {
        total.reads += s.reads;
        total.writes += s.writes;
        total.read_misses += s.read_misses;
        total.write_misses += s.write_misses;
        total.invalidations_received += s.invalidations_received;
        total.writebacks += s.writebacks;
        total.contention_cycles += s.contention_cycles;
        total.dram.requests += s.dram.requests;
        total.dram.row_hits += s.dram.row_hits;
        total.dram.row_misses += s.dram.row_misses;
        total.dram.row_conflicts += s.dram.row_conflicts;
        total.dram.queue_cycles += s.dram.queue_cycles;
        total.dram.bus_wait_cycles += s.dram.bus_wait_cycles;
    }
    return total;
}

} // namespace dsmem::memsys
