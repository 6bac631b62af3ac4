// Unit tests for the PageRun span walk (PageTable::for_each_run): chunk
// segmentation, absent-chunk skipping, early stop, equivalence with the
// per-page find() walk it replaced, pointer stability while the table grows,
// and the VMA/flag-boundary overlays the kernel walks layer on top.
#include <gtest/gtest.h>

#include <vector>

#include "vm/address_space.hpp"

namespace numasim::vm {
namespace {

constexpr Vpn kChunk = PageTable::kChunkPages;

TEST(PageRun, YieldsOneClippedRunPerExistingChunk) {
  PageTable pt;
  pt.ensure(5).set(Pte::kPresent);            // chunk 0
  pt.ensure(kChunk + 20).set(Pte::kPresent);  // chunk 1
  // chunk 2 never established, chunk 3 established empty
  pt.ensure(3 * kChunk + 1);

  std::vector<std::pair<Vpn, std::size_t>> runs;
  pt.for_each_run(3, 4 * kChunk - 7, [&](PageRun run) {
    runs.push_back({run.first, run.ptes.size()});
  });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (std::pair<Vpn, std::size_t>{3, kChunk - 3}));
  EXPECT_EQ(runs[1], (std::pair<Vpn, std::size_t>{kChunk, kChunk}));
  // Chunk 2 is skipped wholesale; chunk 3 is clipped on the right.
  EXPECT_EQ(runs[2], (std::pair<Vpn, std::size_t>{3 * kChunk, kChunk - 7}));
}

TEST(PageRun, MatchesPerPageFindWalk) {
  PageTable pt;
  // Scattered residency over several chunks, with chunk 2 left absent.
  for (Vpn v = 0; v < 5 * kChunk; v += 7) {
    if (v / kChunk == 2) continue;
    pt.ensure(v).set(v % 3 == 0 ? Pte::kPresent : std::uint16_t{0});
  }
  std::vector<Vpn> via_find;
  for (Vpn v = 10; v < 5 * kChunk - 10; ++v) {
    const Pte* pte = pt.find(v);
    if (pte != nullptr && pte->present()) via_find.push_back(v);
  }
  std::vector<Vpn> via_runs;
  pt.for_each_run(10, 5 * kChunk - 10, [&](ConstPageRun run) {
    Vpn v = run.first;
    for (const Pte& pte : run.ptes) {
      if (pte.present()) via_runs.push_back(v);
      ++v;
    }
  });
  EXPECT_EQ(via_runs, via_find);
}

TEST(PageRun, BoolCallbackStopsTheWalk) {
  PageTable pt;
  for (Vpn v = 0; v < 4 * kChunk; v += kChunk) pt.ensure(v);
  std::size_t runs = 0;
  pt.for_each_run(0, 4 * kChunk, [&](PageRun) { return ++runs < 2; });
  EXPECT_EQ(runs, 2u);
}

TEST(PageRun, ConstOverloadAndImplicitConversion) {
  PageTable pt;
  pt.ensure(42).set(Pte::kPresent);
  const PageTable& cpt = pt;
  std::uint64_t present = 0;
  cpt.for_each_run(0, kChunk, [&](ConstPageRun run) {
    for (const Pte& pte : run.ptes) present += pte.present();
  });
  EXPECT_EQ(present, 1u);
  // A read-only callback also binds to the mutable walk via the implicit
  // PageRun -> ConstPageRun conversion.
  present = 0;
  pt.for_each_run(0, kChunk, [&](ConstPageRun run) {
    for (const Pte& pte : run.ptes) present += pte.present();
  });
  EXPECT_EQ(present, 1u);
}

TEST(PageRun, EntriesStayValidWhileTheTableGrows) {
  PageTable pt;
  pt.ensure(1).set(Pte::kPresent);
  Pte* pinned = pt.find(1);
  ASSERT_NE(pinned, nullptr);
  // Grow the table hard enough to force many fresh arena blocks.
  for (Vpn v = kChunk; v < 200 * kChunk; v += kChunk) pt.ensure(v);
  EXPECT_EQ(pt.find(1), pinned);
  EXPECT_TRUE(pinned->present());
  // Creating PTEs from inside a walk is equally safe: the current run's span
  // points into an arena-pinned chunk.
  pt.for_each_run(0, kChunk, [&](PageRun run) {
    pt.ensure(500 * kChunk);  // new chunk mid-walk
    EXPECT_TRUE(run.ptes[1].present());
  });
}

TEST(PageRun, VmaBoundaryOverlay) {
  // The kernel's per-VMA walks clip for_each_run to each mapping, so a run
  // never crosses a VMA even when both share a chunk. Emulate do_mprotect.
  AddressSpace as;
  const Vaddr a = as.map(10 * mem::kPageSize, Prot::kReadWrite, {});
  const Vaddr b = as.map(10 * mem::kPageSize, Prot::kRead, {});
  for (Vpn v = vpn_of(a); v < vpn_of(a) + 10; ++v)
    as.page_table().ensure(v).set(Pte::kPresent);
  for (Vpn v = vpn_of(b); v < vpn_of(b) + 10; ++v)
    as.page_table().ensure(v).set(Pte::kPresent);

  std::vector<std::pair<Vpn, Vpn>> seen;  // [first, last) per run, per VMA
  as.for_range(a, b + 10 * mem::kPageSize, [&](Vma& vma) {
    as.page_table().for_each_run(
        vpn_of(vma.start), vpn_of(vma.end), [&](PageRun run) {
          seen.push_back({run.first, run.first + run.ptes.size()});
        });
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<Vpn, Vpn>{vpn_of(a), vpn_of(a) + 10}));
  EXPECT_EQ(seen[1], (std::pair<Vpn, Vpn>{vpn_of(b), vpn_of(b) + 10}));
}

TEST(PageRun, FlagBoundarySegmentation) {
  // Migration walks segment runs further at per-page flag transitions (txn
  // bits, policy marks). Verify a span walk reconstructs those boundaries.
  PageTable pt;
  for (Vpn v = 0; v < 100; ++v) {
    Pte& pte = pt.ensure(v);
    pte.set(Pte::kPresent);
    if (v >= 30 && v < 60) pte.set(Pte::kTxn);
  }
  std::vector<std::pair<Vpn, Vpn>> segments;  // maximal same-flag spans
  bool cur_txn = false;
  pt.for_each_run(0, 100, [&](ConstPageRun run) {
    Vpn v = run.first;
    for (const Pte& pte : run.ptes) {
      const bool txn = (pte.flags & Pte::kTxn) != 0;
      if (segments.empty() || segments.back().second != v || txn != cur_txn) {
        segments.push_back({v, v + 1});
        cur_txn = txn;
      } else {
        segments.back().second = v + 1;
      }
      ++v;
    }
  });
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0], (std::pair<Vpn, Vpn>{0, 30}));
  EXPECT_EQ(segments[1], (std::pair<Vpn, Vpn>{30, 60}));
  EXPECT_EQ(segments[2], (std::pair<Vpn, Vpn>{60, 100}));
}

TEST(Pte, StaysWithinCompactBudget) {
  // Per-page metadata is compressed so million-page address spaces stay
  // cache-resident: the frame's node rides in the spare high bits of flags,
  // and the transactional migrator detects writes with kDirty. A 512-entry
  // chunk is one 4 KiB host page.
  EXPECT_EQ(sizeof(Pte), 8u);
  EXPECT_EQ(sizeof(Pte) * PageTable::kChunkPages, mem::kPageSize);
}

}  // namespace
}  // namespace numasim::vm
