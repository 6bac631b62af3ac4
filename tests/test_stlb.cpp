// Tests for the soft-TLB access fast path (kern/stlb.hpp): hit/miss
// accounting, cost identity against a cache-disabled kernel, generation
// invalidation at the mapping-mutation sites, the validate() descriptor
// audit, and the access() edge cases that guard the eligibility rules
// (zero-length accesses, mid-extent faults across chunk boundaries, write
// reuse of already-dirty runs, and the admission rule: only extents of at
// least one page-table chunk, vm::PageTable::kChunkPages pages, are looked
// up or cached — so the cache-exercising tests use extents of that size).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {
namespace {

// The smallest extent the soft-TLB admits.
constexpr std::uint64_t kChunk = vm::PageTable::kChunkPages;

KernelConfig config_with_stlb(const topo::Topology& topo, bool stlb) {
  KernelConfig cfg;
  cfg.topology = topo;
  cfg.backing = mem::Backing::kMaterialized;
  cfg.stlb = stlb;
  return cfg;
}

class StlbTest : public ::testing::Test {
 protected:
  StlbTest()
      : topo_(topo::Topology::quad_opteron()),
        k_(config_with_stlb(topo_, true)) {
    pid_ = k_.create_process("stlb");
  }

  ThreadCtx ctx_on(topo::CoreId core) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    return t;
  }

  topo::Topology topo_;
  Kernel k_;
  Pid pid_ = 0;
};

/// Two kernels differing only in cfg.stlb, driven in lockstep: the cache is
/// host-side memoization, so every simulated quantity must stay identical.
class StlbLockstep : public ::testing::Test {
 protected:
  StlbLockstep()
      : topo_(topo::Topology::quad_opteron()),
        on_(config_with_stlb(topo_, true)),
        off_(config_with_stlb(topo_, false)) {
    ton_.pid = on_.create_process("on");
    toff_.pid = off_.create_process("off");
  }

  topo::Topology topo_;
  Kernel on_, off_;
  ThreadCtx ton_, toff_;
};

TEST_F(StlbTest, LenZeroAccessTouchesNothing) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = kChunk * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  const sim::Time before = t.clock;
  const AccessResult r = k_.access(t, a, 0, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.pages, 0u);
  EXPECT_EQ(r.minor_faults, 0u);
  EXPECT_EQ(t.clock, before);
  // The early return precedes the cache: no hit, no miss, even when a
  // descriptor covering the address exists.
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  ASSERT_EQ(k_.stats().stlb_misses, 2u);  // the populating pass and the fill
  const std::uint64_t hits = k_.stats().stlb_hits;
  const std::uint64_t misses = k_.stats().stlb_misses;
  const AccessResult r2 = k_.access(t, a, 0, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r2.pages, 0u);
  EXPECT_EQ(k_.stats().stlb_hits, hits);
  EXPECT_EQ(k_.stats().stlb_misses, misses);
}

TEST_F(StlbLockstep, RepeatedReadsHitAndStayCostIdentical) {
  const std::uint64_t len = kChunk * mem::kPageSize;
  const vm::Vaddr a = on_.sys_mmap(ton_, len, vm::Prot::kReadWrite);
  const vm::Vaddr b = off_.sys_mmap(toff_, len, vm::Prot::kReadWrite);
  ASSERT_EQ(a, b);
  on_.access(ton_, a, len, vm::Prot::kWrite, 3500.0);
  off_.access(toff_, b, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(ton_.clock, toff_.clock);
  for (int rep = 0; rep < 8; ++rep) {
    const AccessResult ra = on_.access(ton_, a, len, vm::Prot::kRead, 3500.0);
    const AccessResult rb = off_.access(toff_, b, len, vm::Prot::kRead, 3500.0);
    EXPECT_EQ(ra.pages, rb.pages);
    EXPECT_EQ(ra.minor_faults, rb.minor_faults);
    EXPECT_EQ(ton_.clock, toff_.clock);
  }
  // Read 1 walks and fills; reads 2..8 hit. The disabled kernel never hits.
  EXPECT_EQ(on_.stats().stlb_hits, 7u);
  EXPECT_EQ(off_.stats().stlb_hits, 0u);
  EXPECT_NO_THROW(on_.validate(ton_));
}

TEST_F(StlbTest, WriteHitRequiresAlreadyDirtyRun) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = kChunk * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);  // populate; pages dirty
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);   // fill: dirty => kWriteOk
  const std::uint64_t hits = k_.stats().stlb_hits;
  // A write over an already-dirty run changes no PTE state the slow path
  // would record differently (re-set kDirty is idempotent; see the dirty
  // requirement in docs/performance.md §6), so it may hit.
  const AccessResult r = k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(r.pages, kChunk);
  EXPECT_EQ(r.minor_faults, 0u);
  EXPECT_EQ(k_.stats().stlb_hits, hits + 1);
  EXPECT_NO_THROW(k_.validate(t));
}

TEST_F(StlbTest, ReadPopulatedRunDoesNotEarnWriteHit) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = kChunk * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);  // populate clean pages
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);  // fill: clean => read-only
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);  // the read-only right hits
  const std::uint64_t hits = k_.stats().stlb_hits;
  ASSERT_EQ(hits, 1u);
  // The first write must walk (it sets kDirty — state the fast path is not
  // allowed to skip on clean pages).
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(k_.stats().stlb_hits, hits);
  EXPECT_NO_THROW(k_.validate(t));
}

TEST_F(StlbLockstep, ChunkBoundarySpanWithMidExtentFault) {
  // > 512 pages guarantees the extent crosses at least one page-table chunk
  // boundary wherever mmap placed it.
  const std::uint64_t pages = 1200;
  const std::uint64_t len = pages * mem::kPageSize;
  const vm::Vaddr a = on_.sys_mmap(ton_, len, vm::Prot::kReadWrite);
  const vm::Vaddr b = off_.sys_mmap(toff_, len, vm::Prot::kReadWrite);
  on_.access(ton_, a, len, vm::Prot::kWrite, 3500.0);
  off_.access(toff_, b, len, vm::Prot::kWrite, 3500.0);
  // Drop one page in the middle of the extent (and past the first chunk).
  const vm::Vaddr hole = a + 700 * mem::kPageSize;
  on_.sys_madvise(ton_, hole, mem::kPageSize, Advice::kDontNeed);
  off_.sys_madvise(toff_, b + 700 * mem::kPageSize, mem::kPageSize,
                   Advice::kDontNeed);
  // The spanning read faults mid-extent: correct result, no descriptor.
  const std::uint64_t hits = on_.stats().stlb_hits;
  const AccessResult ra = on_.access(ton_, a, len, vm::Prot::kRead, 3500.0);
  const AccessResult rb = off_.access(toff_, b, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(ra.pages, pages);
  EXPECT_EQ(ra.minor_faults, 1u);
  EXPECT_EQ(ra.pages, rb.pages);
  EXPECT_EQ(ra.minor_faults, rb.minor_faults);
  EXPECT_EQ(ton_.clock, toff_.clock);
  EXPECT_EQ(on_.stats().stlb_hits, hits);  // the faulting pass cannot hit
  // Next read walks fault-free and fills; the one after hits.
  on_.access(ton_, a, len, vm::Prot::kRead, 3500.0);
  off_.access(toff_, b, len, vm::Prot::kRead, 3500.0);
  on_.access(ton_, a, len, vm::Prot::kRead, 3500.0);
  off_.access(toff_, b, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(on_.stats().stlb_hits, hits + 1);
  EXPECT_EQ(ton_.clock, toff_.clock);
  EXPECT_NO_THROW(on_.validate(ton_));
}

TEST_F(StlbLockstep, AdmitsOnlyChunkSpanningExtents) {
  const std::uint64_t len = 3 * kChunk * mem::kPageSize;
  const vm::Vaddr a = on_.sys_mmap(ton_, len, vm::Prot::kReadWrite);
  const vm::Vaddr b = off_.sys_mmap(toff_, len, vm::Prot::kReadWrite);
  ASSERT_EQ(a, b);
  auto both = [&](std::uint64_t offset, std::uint64_t bytes, vm::Prot want) {
    const AccessResult ra = on_.access(ton_, a + offset, bytes, want, 3500.0);
    const AccessResult rb = off_.access(toff_, b + offset, bytes, want, 3500.0);
    EXPECT_EQ(ra.pages, rb.pages);
    EXPECT_EQ(ra.minor_faults, rb.minor_faults);
    EXPECT_EQ(ton_.clock, toff_.clock) << bytes << " bytes at +" << offset;
  };
  both(0, len, vm::Prot::kWrite);  // populate: faults, so nothing is cached
  const std::uint64_t hits = on_.stats().stlb_hits;
  const std::uint64_t misses = on_.stats().stlb_misses;

  // One page short of a chunk: never looked up, never cached.
  for (int rep = 0; rep < 3; ++rep)
    both(0, (kChunk - 1) * mem::kPageSize, vm::Prot::kRead);
  // Strided tile rows (the LU shape: 512 one-page rows) are one-page
  // extents each, however many rows one call covers.
  for (int rep = 0; rep < 2; ++rep) {
    const AccessResult ra = on_.access_strided(
        ton_, a, kChunk, mem::kPageSize, 2 * mem::kPageSize, vm::Prot::kRead, 3500.0);
    const AccessResult rb = off_.access_strided(
        toff_, b, kChunk, mem::kPageSize, 2 * mem::kPageSize, vm::Prot::kRead, 3500.0);
    EXPECT_EQ(ra.pages, kChunk);
    EXPECT_EQ(ra.pages, rb.pages);
    EXPECT_EQ(ton_.clock, toff_.clock);
  }
  EXPECT_EQ(on_.stats().stlb_hits, hits);
  EXPECT_EQ(on_.stats().stlb_misses, misses);

  // A full chunk misses and fills once; its repeat hits.
  both(0, kChunk * mem::kPageSize, vm::Prot::kRead);
  EXPECT_EQ(on_.stats().stlb_misses, misses + 1);
  EXPECT_EQ(on_.stats().stlb_hits, hits);
  both(0, kChunk * mem::kPageSize, vm::Prot::kRead);
  EXPECT_EQ(on_.stats().stlb_hits, hits + 1);

  // Around the boundary with a mid-page start (in the second chunk, clear
  // of the descriptor above) the extent touches one page more than its
  // length in pages, so all three are admitted; each repeat charges its
  // hit exactly like the walk.
  const std::uint64_t mid = kChunk * mem::kPageSize + mem::kPageSize / 2;
  for (const std::uint64_t pages : {kChunk - 1, kChunk, kChunk + 1}) {
    const std::uint64_t before = on_.stats().stlb_hits;
    both(mid, pages * mem::kPageSize, vm::Prot::kRead);
    both(mid, pages * mem::kPageSize, vm::Prot::kRead);
    EXPECT_EQ(on_.stats().stlb_hits, before + 1) << pages << " pages";
  }
  EXPECT_EQ(off_.stats().stlb_hits + off_.stats().stlb_misses, 0u);
  EXPECT_NO_THROW(on_.validate(ton_));
}

TEST_F(StlbTest, MappingMutationsBumpTheGeneration) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  std::uint64_t gen = k_.mapping_generation(pid_);
  auto bumped = [&](const char* what) {
    const std::uint64_t now = k_.mapping_generation(pid_);
    EXPECT_GT(now, gen) << what;
    gen = now;
  };
  k_.sys_mprotect(t, a, len, vm::Prot::kReadWrite);
  bumped("mprotect");
  k_.sys_madvise(t, a, mem::kPageSize, Advice::kDontNeed);
  bumped("madvise(DONTNEED)");
  k_.sys_madvise(t, a + mem::kPageSize, mem::kPageSize,
                 Advice::kMigrateOnNextTouch);
  bumped("madvise(MIGRATE_ON_NEXT_TOUCH)");
  const Kernel::MoveRange mr{a + 2 * mem::kPageSize, mem::kPageSize, 1};
  k_.sys_move_pages_ranged(t, {&mr, 1});
  bumped("move_pages_ranged");
  k_.sys_mbind(t, a, len, vm::MemPolicy::preferred(2));
  bumped("mbind");
  k_.sys_set_mempolicy(t, vm::MemPolicy::preferred(1));
  bumped("set_mempolicy");
  k_.set_task_policy(pid_, vm::MemPolicy{});
  bumped("set_task_policy");
  k_.sys_munmap(t, a, len);
  bumped("munmap");
}

TEST_F(StlbTest, MigrationInvalidatesCachedDescriptor) {
  ThreadCtx t = ctx_on(0);  // node 0
  const std::uint64_t len = kChunk * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);  // fill
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);  // hit
  EXPECT_EQ(k_.stats().stlb_hits, 1u);
  const Kernel::MoveRange mr{a, len, 2};
  ASSERT_EQ(k_.sys_move_pages_ranged(t, {&mr, 1}), static_cast<long>(kChunk));
  // The cached descriptor names node 0; the bump keeps it from serving a
  // stale one-stream charge. The re-walk sees node 2 and refills.
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(k_.stats().stlb_hits, 1u);
  k_.access(t, a, len, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(k_.stats().stlb_hits, 2u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len, 2), kChunk);
  EXPECT_NO_THROW(k_.validate(t));
}

TEST_F(StlbTest, ValidateAuditRejectsCorruptDescriptor) {
  ThreadCtx t = ctx_on(0);
  const std::uint64_t len = 4 * mem::kPageSize;
  const vm::Vaddr a = k_.sys_mmap(t, len, vm::Prot::kReadWrite);
  k_.access(t, a, len, vm::Prot::kWrite, 3500.0);
  // A current-generation descriptor lying about the node must be caught.
  t.stlb.insert({vm::vpn_of(a), 4, t.pid, k_.mapping_generation(pid_),
                 /*node=*/3, SoftTlb::kReadOk});
  EXPECT_THROW(k_.validate(t), std::logic_error);
  // The same lie at a stale generation is dead weight, not corruption: the
  // lookup can never return it, so the audit skips it.
  t.stlb.clear();
  t.stlb.insert({vm::vpn_of(a), 4, t.pid, k_.mapping_generation(pid_) + 1000,
                 /*node=*/3, SoftTlb::kReadOk});
  EXPECT_NO_THROW(k_.validate(t));
}

TEST_F(StlbLockstep, MixedMutationSequenceStaysEventIdentical) {
  const std::uint64_t len = kChunk * mem::kPageSize;
  const vm::Vaddr a = on_.sys_mmap(ton_, len, vm::Prot::kReadWrite);
  const vm::Vaddr b = off_.sys_mmap(toff_, len, vm::Prot::kReadWrite);
  auto step = [&] {
    ASSERT_EQ(ton_.clock, toff_.clock);
    ASSERT_EQ(on_.stats().minor_faults, off_.stats().minor_faults);
    ASSERT_EQ(on_.stats().pages_migrated_move, off_.stats().pages_migrated_move);
    ASSERT_EQ(on_.stats().tlb_shootdowns, off_.stats().tlb_shootdowns);
  };
  on_.access(ton_, a, len, vm::Prot::kWrite, 3500.0);
  off_.access(toff_, b, len, vm::Prot::kWrite, 3500.0);
  step();
  for (int rep = 0; rep < 4; ++rep) {
    on_.access(ton_, a, len, vm::Prot::kRead, 3500.0);
    off_.access(toff_, b, len, vm::Prot::kRead, 3500.0);
    step();
  }
  on_.sys_madvise(ton_, a, len, Advice::kMigrateOnNextTouch);
  off_.sys_madvise(toff_, b, len, Advice::kMigrateOnNextTouch);
  ThreadCtx ton2 = ton_;
  ThreadCtx toff2 = toff_;
  ton2.core = toff2.core = 4;  // node 1 touches next
  on_.access(ton2, a, len, vm::Prot::kWrite, 3500.0);
  off_.access(toff2, b, len, vm::Prot::kWrite, 3500.0);
  ASSERT_EQ(ton2.clock, toff2.clock);
  const Kernel::MoveRange mr_on{a, len, 3};
  const Kernel::MoveRange mr_off{b, len, 3};
  EXPECT_EQ(on_.sys_move_pages_ranged(ton2, {&mr_on, 1}),
            off_.sys_move_pages_ranged(toff2, {&mr_off, 1}));
  on_.access(ton2, a, len, vm::Prot::kRead, 3500.0);
  off_.access(toff2, b, len, vm::Prot::kRead, 3500.0);
  ASSERT_EQ(ton2.clock, toff2.clock);
  step();
  EXPECT_GT(on_.stats().stlb_hits, 0u);
  EXPECT_EQ(off_.stats().stlb_hits, 0u);
  EXPECT_NO_THROW(on_.validate(ton2));
}

}  // namespace
}  // namespace numasim::kern
