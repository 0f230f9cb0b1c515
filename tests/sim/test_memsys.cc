/**
 * @file
 * Tests for the MESI memory system and the last-writer extension.
 */

#include <gtest/gtest.h>

#include "common/hashing.hh"
#include "sim/memsys.hh"

namespace act
{
namespace
{

TraceEvent
store(ThreadId tid, Pc pc, Addr addr)
{
    TraceEvent e;
    e.kind = EventKind::kStore;
    e.tid = tid;
    e.pc = pc;
    e.addr = addr;
    return e;
}

TraceEvent
load(ThreadId tid, Pc pc, Addr addr)
{
    TraceEvent e;
    e.kind = EventKind::kLoad;
    e.tid = tid;
    e.pc = pc;
    e.addr = addr;
    return e;
}

MemSystemConfig
smallConfig()
{
    MemSystemConfig c;
    c.cores = 4;
    return c;
}

TEST(MemorySystem, FirstReadIsExclusiveFromMemory)
{
    MemorySystem mem(smallConfig());
    const MemAccess a = mem.access(0, load(0, 0x10, 0x1000));
    EXPECT_EQ(a.level, AccessLevel::kMemory);
    EXPECT_EQ(a.prior_state, Mesi::kInvalid);
    // The re-read hits locally.
    const MemAccess b = mem.access(0, load(0, 0x10, 0x1000));
    EXPECT_EQ(b.level, AccessLevel::kL1);
    EXPECT_EQ(b.prior_state, Mesi::kExclusive);
}

TEST(MemorySystem, SecondReaderSeesSharedState)
{
    MemorySystem mem(smallConfig());
    mem.access(0, load(0, 0x10, 0x1000));
    const MemAccess remote = mem.access(1, load(1, 0x20, 0x1000));
    // The E owner supplies the line; both end shared.
    EXPECT_EQ(remote.level, AccessLevel::kRemote);
    const MemAccess again = mem.access(0, load(0, 0x10, 0x1000));
    EXPECT_EQ(again.prior_state, Mesi::kShared);
}

TEST(MemorySystem, StoreInvalidatesSharers)
{
    MemorySystem mem(smallConfig());
    mem.access(0, load(0, 0x10, 0x1000));
    mem.access(1, load(1, 0x20, 0x1000));
    const auto invalidations_before = mem.stats().invalidations;
    mem.access(0, store(0, 0x30, 0x1000));
    EXPECT_EQ(mem.stats().invalidations, invalidations_before + 1);
    // Core 1 must now miss.
    const MemAccess miss = mem.access(1, load(1, 0x20, 0x1000));
    EXPECT_EQ(miss.prior_state, Mesi::kInvalid);
    EXPECT_EQ(miss.level, AccessLevel::kRemote); // dirty c2c transfer
}

TEST(MemorySystem, LocalStoreLoadFormsDependence)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
    EXPECT_EQ(a.last_writer->pc, 0x30u);
    EXPECT_EQ(a.last_writer->tid, 0u);
}

TEST(MemorySystem, DirtyCacheToCachePiggybacksWriter)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    const MemAccess remote = mem.access(1, load(1, 0x40, 0x1000));
    EXPECT_EQ(remote.level, AccessLevel::kRemote);
    ASSERT_TRUE(remote.last_writer.has_value());
    EXPECT_EQ(remote.last_writer->pc, 0x30u);
    EXPECT_EQ(remote.last_writer->tid, 0u);
}

TEST(MemorySystem, ThirdSharerLosesWriterByDefault)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(1, load(1, 0x40, 0x1000)); // dirty c2c, owner now S
    // A third reader finds only clean S copies: MESI serves it from
    // memory and, per Section V, no metadata travels with it.
    const MemAccess third = mem.access(2, load(2, 0x50, 0x1000));
    EXPECT_EQ(third.level, AccessLevel::kMemory);
    EXPECT_FALSE(third.last_writer.has_value());
}

TEST(MemorySystem, AlwaysPiggybackFlagCopiesFromSharers)
{
    MemSystemConfig config = smallConfig();
    config.always_piggyback_writer = true;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(1, load(1, 0x40, 0x1000));
    const MemAccess third = mem.access(2, load(2, 0x50, 0x1000));
    ASSERT_TRUE(third.last_writer.has_value());
    EXPECT_EQ(third.last_writer->pc, 0x30u);
}

TEST(MemorySystem, WritebackMetadataFlagSurvivesEviction)
{
    MemSystemConfig config = smallConfig();
    config.writeback_writer_metadata = true;
    config.l1_bytes = 256;
    config.l1_assoc = 1;
    config.l2_bytes = 512;
    config.l2_assoc = 1;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x0));
    for (int i = 1; i <= 4; ++i)
        mem.access(0, store(0, 0x99, 0x0 + i * 8 * 64));
    const MemAccess a = mem.access(0, load(0, 0x40, 0x0));
    EXPECT_EQ(a.level, AccessLevel::kMemory);
    ASSERT_TRUE(a.last_writer.has_value());
    EXPECT_EQ(a.last_writer->pc, 0x30u);
}

TEST(MemorySystem, WordGranularityKeepsNeighboursApart)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(0, store(0, 0x31, 0x1004)); // next word, same line
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
    EXPECT_EQ(a.last_writer->pc, 0x30u);
}

TEST(MemorySystem, LineGranularityAliasesNeighbours)
{
    MemSystemConfig config = smallConfig();
    config.writer_granularity = Granularity::kLine;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(1, store(1, 0x31, 0x1004)); // same line, other word
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
    // False sharing: the line-level writer is the later store.
    EXPECT_EQ(a.last_writer->pc, 0x31u);
}

TEST(MemorySystem, EvictionDropsWriterMetadata)
{
    MemSystemConfig config = smallConfig();
    config.l1_bytes = 256; // 4 lines
    config.l1_assoc = 1;
    config.l2_bytes = 512; // 8 lines
    config.l2_assoc = 1;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x0));
    // Walk enough conflicting lines to evict line 0 from the
    // direct-mapped 8-set L2 (stride = 8 lines * 64B).
    for (int i = 1; i <= 4; ++i)
        mem.access(0, store(0, 0x99, 0x0 + i * 8 * 64));
    EXPECT_GT(mem.stats().evictions, 0u);
    const MemAccess a = mem.access(0, load(0, 0x40, 0x0));
    EXPECT_EQ(a.level, AccessLevel::kMemory);
    EXPECT_FALSE(a.last_writer.has_value());
}

TEST(MemorySystem, LatencyOrdering)
{
    MemorySystem mem(smallConfig());
    const MemAccess memory = mem.access(0, load(0, 0x10, 0x2000));
    const MemAccess l1 = mem.access(0, load(0, 0x10, 0x2000));
    mem.access(1, store(1, 0x20, 0x3000));
    const MemAccess remote = mem.access(0, load(0, 0x10, 0x3000));
    EXPECT_LT(l1.latency, remote.latency);
    EXPECT_LT(remote.latency, memory.latency);
    EXPECT_EQ(l1.latency, 2u);
    EXPECT_EQ(memory.latency, 2u + 10u + 300u);
}

TEST(MemorySystem, StatsAccumulate)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(0, load(0, 0x40, 0x1000));
    mem.access(1, load(1, 0x50, 0x1000));
    const MemSystemStats &s = mem.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.cache_to_cache, 1u);
    EXPECT_EQ(s.writer_known, 2u);
}

TEST(MemorySystem, ResetClearsCachesNotStats)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    mem.reset();
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    EXPECT_EQ(a.level, AccessLevel::kMemory);
    EXPECT_FALSE(a.last_writer.has_value());
    EXPECT_EQ(mem.stats().stores, 1u);
}

/**
 * Stale-record pins: a line's writer records are written only when the
 * line is filled, so nothing a line held before it was dropped (by
 * reset(), eviction or a remote invalidation) may ever surface.
 */
class MemStaleRecords : public ::testing::TestWithParam<Granularity>
{
  protected:
    MemSystemConfig
    config() const
    {
        MemSystemConfig c = smallConfig();
        c.writer_granularity = GetParam();
        return c;
    }
};

TEST_P(MemStaleRecords, ResetDropsEveryWordsWriter)
{
    MemorySystem mem(config());
    for (Addr w = 0; w < 8; ++w)
        mem.access(0, store(0, 0x30 + w, 0x1000 + w * 4));
    mem.reset();
    // The first load refills the line from memory; the second hits it
    // and reads the records the fill wrote.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr w = 0; w < 8; ++w) {
            const MemAccess a =
                mem.access(0, load(0, 0x40, 0x1000 + w * 4));
            EXPECT_FALSE(a.last_writer.has_value()) << "word " << w;
        }
    }
}

TEST_P(MemStaleRecords, RefilledSetHasNoWriters)
{
    MemSystemConfig c = config();
    c.l1_bytes = 256; // 4 lines
    c.l1_assoc = 1;
    c.l2_bytes = 1024; // 16 lines, 8 sets x 2 ways
    c.l2_assoc = 2;
    MemorySystem mem(c);
    const Addr stride = 8 * 64; // Same set, next tag.
    for (Addr way = 0; way < 2; ++way) {
        for (Addr w = 0; w < 4; ++w)
            mem.access(0, store(0, 0x30 + w, way * stride + w * 4));
    }
    // Evict the whole set with loads, then bring the stored lines back
    // from memory; every fill reuses a slot whose records were written.
    for (Addr tag = 2; tag < 6; ++tag) {
        for (int pass = 0; pass < 2; ++pass) {
            const MemAccess a = mem.access(0, load(0, 0x40, tag * stride));
            EXPECT_FALSE(a.last_writer.has_value()) << "tag " << tag;
        }
    }
    EXPECT_GE(mem.stats().evictions, 2u);
    for (Addr way = 0; way < 2; ++way) {
        for (int pass = 0; pass < 2; ++pass) {
            for (Addr w = 0; w < 4; ++w) {
                const MemAccess a =
                    mem.access(0, load(0, 0x40, way * stride + w * 4));
                EXPECT_EQ(a.level == AccessLevel::kMemory, pass == 0 &&
                                                               w == 0);
                EXPECT_FALSE(a.last_writer.has_value())
                    << "way " << way << " word " << w;
            }
        }
    }
}

TEST_P(MemStaleRecords, InvalidatedLineDropsWriters)
{
    MemorySystem mem(config());
    for (Addr w = 0; w < 4; ++w)
        mem.access(0, store(0, 0x30 + w, 0x1000 + w * 4));
    mem.access(1, store(1, 0x50, 0x1000)); // Invalidates core 0's copy.
    EXPECT_EQ(mem.stateOf(0, 0x1000), Mesi::kInvalid);

    // A third core reads the line from its dirty owner: the only writer
    // it may see is core 1's store, never core 0's.
    for (Addr w = 0; w < 4; ++w) {
        const MemAccess a = mem.access(2, load(2, 0x60, 0x1000 + w * 4));
        if (a.last_writer) {
            EXPECT_EQ(a.last_writer->pc, 0x50u) << "word " << w;
        }
        EXPECT_EQ(a.last_writer.has_value(),
                  w == 0 || GetParam() == Granularity::kLine);
    }
    // Core 0 refills into the slot that still held its own records; no
    // dirty owner is left, so nothing is piggybacked.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr w = 0; w < 4; ++w) {
            const MemAccess a =
                mem.access(0, load(0, 0x40, 0x1000 + w * 4));
            EXPECT_FALSE(a.last_writer.has_value()) << "word " << w;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Granularities, MemStaleRecords,
    ::testing::Values(Granularity::kWord, Granularity::kLine),
    [](const ::testing::TestParamInfo<Granularity> &info) {
        return info.param == Granularity::kWord ? "Word" : "Line";
    });

/** Seeded fault plan: drops or corrupts one transfer in three. */
class SeededWriterFaults final : public FaultHooks
{
  public:
    WriterFaultAction
    onWriterTransfer() override
    {
        switch (mix64(++draws_) % 6) {
          case 0: return WriterFaultAction::kDrop;
          case 1: return WriterFaultAction::kStale;
          default: return WriterFaultAction::kNone;
        }
    }
    bool dropInputDependence() override { return false; }
    bool dropDebugLog() override { return false; }

  private:
    std::uint64_t draws_ = 0;
};

/**
 * Differential pin of the whole access path: a seeded stream of loads,
 * stores and lock read-modify-writes from four cores through a small L2
 * (so lines are evicted), with one reset() midway, under every
 * granularity, metadata policy and fault plan. Mixes every MemAccess
 * field and the final statistics of each configuration.
 */
TEST(MemSystemDifferential, AccessStreamMatchesGoldenHash)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    for (const Granularity granularity :
         {Granularity::kWord, Granularity::kLine}) {
        for (int policy = 0; policy < 3; ++policy) {
            for (const bool faulty : {false, true}) {
                SeededWriterFaults faults;
                MemSystemConfig c = smallConfig();
                c.l1_bytes = 512;
                c.l1_assoc = 2;
                c.l2_bytes = 2048; // 32 lines, 8 sets x 4 ways
                c.l2_assoc = 4;
                c.writer_granularity = granularity;
                c.writeback_writer_metadata = policy == 1;
                c.always_piggyback_writer = policy == 2;
                c.faults = faulty ? &faults : nullptr;
                MemorySystem mem(c);

                std::uint64_t seed = 0x3e3a11ULL;
                const auto run = [&](const TraceEvent &e, CoreId core) {
                    const MemAccess a = mem.access(core, e);
                    mix(static_cast<std::uint64_t>(a.level));
                    mix(static_cast<std::uint64_t>(a.prior_state));
                    mix(a.latency);
                    mix(a.l1_hit ? 1 : 0);
                    mix(a.last_writer ? a.last_writer->pc : kInvalidPc);
                    mix(a.last_writer ? a.last_writer->tid : kInvalidThread);
                };
                for (std::uint64_t i = 0; i < 6000; ++i) {
                    if (i == 3000)
                        mem.reset();
                    seed = mix64(seed + i);
                    const auto core = static_cast<CoreId>(seed % 4);
                    const auto tid = static_cast<ThreadId>(core);
                    // 96 lines over 8 sets: heavy sharing and eviction.
                    const Addr addr = ((seed >> 8) % 96) * 64 +
                                      ((seed >> 16) % 16) * 4;
                    const Pc pc = 0x100 + (seed >> 24) % 64;
                    switch ((seed >> 32) % 8) {
                      case 0: // Lock RMW: read, then write, one word.
                        run(load(tid, pc, addr), core);
                        run(store(tid, pc + 1, addr), core);
                        break;
                      case 1:
                      case 2:
                      case 3:
                        run(store(tid, pc, addr), core);
                        break;
                      default:
                        run(load(tid, pc, addr), core);
                        break;
                    }
                }
                const MemSystemStats &s = mem.stats();
                EXPECT_GT(s.evictions, 0u);
                EXPECT_GT(s.invalidations, 0u);
                EXPECT_GT(s.writer_known, 0u);
                for (const std::uint64_t v :
                     {s.loads, s.stores, s.l1_hits, s.l2_hits,
                      s.cache_to_cache, s.memory_fetches, s.invalidations,
                      s.evictions, s.writer_known, s.writer_unknown})
                    mix(v);
            }
        }
    }
    EXPECT_EQ(h, 0x14912f398b6fe948ULL);
}

/** Line-size sweep (Table III: 4..128 B). */
class MemLineSize : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MemLineSize, TransferCyclesScaleWithLineSize)
{
    MemSystemConfig config = smallConfig();
    config.line_bytes = GetParam();
    EXPECT_EQ(config.lineTransferCycles(),
              (GetParam() + 31) / 32);
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x1000));
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MemLineSize,
                         ::testing::Values(4, 32, 64, 128));

} // namespace
} // namespace act
