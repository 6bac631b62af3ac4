// Unit tests for VMAs, the address space, the page table and policies.
#include <gtest/gtest.h>

#include "vm/address_space.hpp"

namespace numasim::vm {
namespace {

TEST(Pte, FlagHelpers) {
  Pte pte;
  EXPECT_FALSE(pte.present());
  pte.set(Pte::kPresent | Pte::kHwRead);
  EXPECT_TRUE(pte.present());
  EXPECT_TRUE(pte.hw_allows(Prot::kRead));
  EXPECT_FALSE(pte.hw_allows(Prot::kWrite));
  EXPECT_FALSE(pte.hw_allows(Prot::kReadWrite));
  pte.set(Pte::kHwWrite);
  EXPECT_TRUE(pte.hw_allows(Prot::kReadWrite));
  pte.clear(Pte::kHwRead | Pte::kHwWrite);
  EXPECT_FALSE(pte.hw_allows(Prot::kRead));
  pte.set(Pte::kNextTouch);
  EXPECT_TRUE(pte.next_touch());

  // map() writes the frame and the node bits and keeps every flag bit.
  const std::uint16_t flags = pte.flags;
  pte.map(7, 5);
  EXPECT_EQ(pte.frame, 7u);
  EXPECT_EQ(pte.node(), 5u);
  EXPECT_EQ(pte.flags & Pte::kFlagMask, flags);
  pte.map(8, topo::kMaxNodes - 1);
  EXPECT_EQ(pte.node(), topo::kMaxNodes - 1);
  EXPECT_EQ(pte.flags & Pte::kFlagMask, flags);
  pte.map(9, 0);
  EXPECT_EQ(pte.node(), 0u);
  EXPECT_EQ(pte.flags & Pte::kFlagMask, flags);

  // The flag helpers keep the node bits, whichever flags they touch.
  pte.map(9, 3);
  pte.set(Pte::kFlagMask);
  EXPECT_EQ(pte.node(), 3u);
  EXPECT_EQ(pte.flags & Pte::kFlagMask, Pte::kFlagMask);
  pte.clear(Pte::kFlagMask);
  EXPECT_EQ(pte.node(), 3u);
  EXPECT_EQ(pte.flags & Pte::kFlagMask, 0u);
  pte.set(Pte::kPresent | Pte::kTxn);
  pte.restore_hw(Prot::kReadWrite);
  EXPECT_EQ(pte.node(), 3u);
  EXPECT_TRUE(pte.hw_allows(Prot::kReadWrite));
  pte.restore_hw(Prot::kNone);
  EXPECT_EQ(pte.node(), 3u);
  EXPECT_EQ(pte.flags & Pte::kFlagMask, Pte::kPresent | Pte::kTxn);
}

TEST(Prot, Lattice) {
  EXPECT_TRUE(prot_allows(Prot::kReadWrite, Prot::kRead));
  EXPECT_TRUE(prot_allows(Prot::kReadWrite, Prot::kWrite));
  EXPECT_FALSE(prot_allows(Prot::kRead, Prot::kWrite));
  EXPECT_FALSE(prot_allows(Prot::kNone, Prot::kRead));
  EXPECT_TRUE(prot_allows(Prot::kRead, Prot::kNone));
}

TEST(PageTable, FindVsEnsure) {
  PageTable pt;
  EXPECT_EQ(pt.find(100), nullptr);
  Pte& pte = pt.ensure(100);
  pte.set(Pte::kPresent);
  ASSERT_NE(pt.find(100), nullptr);
  EXPECT_TRUE(pt.find(100)->present());
  // Neighbouring slot in the same chunk exists but is empty.
  ASSERT_NE(pt.find(101), nullptr);
  EXPECT_FALSE(pt.find(101)->present());
  // A distant vpn has no chunk at all.
  EXPECT_EQ(pt.find(1'000'000), nullptr);
}

TEST(PageTable, ClearRangeAndCount) {
  PageTable pt;
  for (Vpn v = 10; v < 20; ++v) pt.ensure(v).set(Pte::kPresent);
  EXPECT_EQ(pt.count_present(0, 100), 10u);
  pt.clear_range(12, 15);
  EXPECT_EQ(pt.count_present(0, 100), 7u);
  EXPECT_FALSE(pt.find(13)->present());
  EXPECT_TRUE(pt.find(15)->present());
}

TEST(AddressSpace, MapAlignsAndSeparates) {
  AddressSpace as;
  const Vaddr a = as.map(100, Prot::kReadWrite, {});
  const Vaddr b = as.map(mem::kPageSize * 3, Prot::kRead, {});
  EXPECT_EQ(a % mem::kPageSize, 0u);
  EXPECT_GE(b, a + mem::kPageSize * 2);  // rounded-up + guard page
  ASSERT_NE(as.find(a), nullptr);
  EXPECT_EQ(as.find(a)->pages(), 1u);
  EXPECT_EQ(as.find(b)->pages(), 3u);
  EXPECT_EQ(as.find(a + mem::kPageSize), nullptr);  // guard gap unmapped
  EXPECT_TRUE(as.range_mapped(b, mem::kPageSize * 3));
  EXPECT_FALSE(as.range_mapped(b, mem::kPageSize * 4));
  EXPECT_THROW(as.map(0, Prot::kRead, {}), std::invalid_argument);
}

TEST(AddressSpace, MapRejectsLengthsPastTheUserAddressSpace) {
  AddressSpace as;
  // Rounded up to pages, 2^64 - 101 wraps to 0, and 2^63 ends below its
  // start: neither may hand out an address it did not map.
  EXPECT_THROW(as.map(~std::uint64_t{0} - 100, Prot::kRead, {}),
               std::invalid_argument);
  EXPECT_THROW(as.map(std::uint64_t{1} << 63, Prot::kRead, {}),
               std::invalid_argument);
  EXPECT_THROW(as.map(AddressSpace::kUserTop, Prot::kRead, {}),
               std::invalid_argument);
  EXPECT_EQ(as.vma_count(), 0u);

  // A rejected length leaves the layout as it was; the largest length that
  // still fits ends exactly at kUserTop.
  const Vaddr a = as.map(mem::kPageSize, Prot::kRead, {});
  EXPECT_EQ(a, AddressSpace::kMmapBase);
  const Vaddr top = AddressSpace::kUserTop - (a + 2 * mem::kPageSize);
  const Vaddr b = as.map(top - mem::kPageSize + 1, Prot::kRead, {});
  ASSERT_NE(as.find(b), nullptr);
  EXPECT_EQ(as.find(b)->end, AddressSpace::kUserTop);
  EXPECT_THROW(as.map(1, Prot::kRead, {}), std::invalid_argument);
}

TEST(AddressSpace, ForRangeSplitsAndMergesBack) {
  AddressSpace as;
  const Vaddr a = as.map(mem::kPageSize * 10, Prot::kReadWrite, {});
  EXPECT_EQ(as.vma_count(), 1u);

  // Change protection of the middle 4 pages: 3 VMAs.
  as.for_range(a + 3 * mem::kPageSize, a + 7 * mem::kPageSize,
               [](Vma& v) { v.prot = Prot::kNone; });
  EXPECT_EQ(as.vma_count(), 3u);
  EXPECT_EQ(as.find(a)->prot, Prot::kReadWrite);
  EXPECT_EQ(as.find(a + 4 * mem::kPageSize)->prot, Prot::kNone);
  EXPECT_EQ(as.find(a + 8 * mem::kPageSize)->prot, Prot::kReadWrite);

  // Restore: merges back into one VMA.
  as.for_range(a + 3 * mem::kPageSize, a + 7 * mem::kPageSize,
               [](Vma& v) { v.prot = Prot::kReadWrite; });
  EXPECT_EQ(as.vma_count(), 1u);
}

TEST(AddressSpace, PgoffBaseSurvivesSplit) {
  AddressSpace as;
  const Vaddr a = as.map(mem::kPageSize * 8, Prot::kReadWrite,
                         MemPolicy::interleave(0b11));
  as.for_range(a + 2 * mem::kPageSize, a + 4 * mem::kPageSize,
               [](Vma& v) { v.prot = Prot::kRead; });
  const Vma* right = as.find(a + 5 * mem::kPageSize);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(right->pgoff_base, vpn_of(a));
  EXPECT_EQ(right->pgoff(vpn_of(a) + 5), 5u);
}

TEST(AddressSpace, UnmapRemovesMiddle) {
  AddressSpace as;
  const Vaddr a = as.map(mem::kPageSize * 10, Prot::kReadWrite, {});
  const std::uint64_t removed = as.unmap(a + 2 * mem::kPageSize, 3 * mem::kPageSize);
  EXPECT_EQ(removed, 3u);
  EXPECT_NE(as.find(a), nullptr);
  EXPECT_EQ(as.find(a + 2 * mem::kPageSize), nullptr);
  EXPECT_NE(as.find(a + 5 * mem::kPageSize), nullptr);
  EXPECT_EQ(as.vma_count(), 2u);
}

TEST(MemPolicy, FirstTouchFollowsLocal) {
  const MemPolicy p = MemPolicy::first_touch();
  EXPECT_EQ(p.target_node(17, 2, 4), 2u);
}

TEST(MemPolicy, BindAndPreferredPickFirstMaskNode) {
  EXPECT_EQ(MemPolicy::bind(0b1000).target_node(0, 0, 4), 3u);
  EXPECT_EQ(MemPolicy::preferred(2).target_node(9, 0, 4), 2u);
}

TEST(MemPolicy, InterleaveIsOffsetBased) {
  const MemPolicy p = MemPolicy::interleave(0b1111);
  EXPECT_EQ(p.target_node(0, 9, 4), 0u);
  EXPECT_EQ(p.target_node(1, 9, 4), 1u);
  EXPECT_EQ(p.target_node(5, 9, 4), 1u);
  // Sparse mask: nodes 1 and 3 alternate.
  const MemPolicy q = MemPolicy::interleave(0b1010);
  EXPECT_EQ(q.target_node(0, 0, 4), 1u);
  EXPECT_EQ(q.target_node(1, 0, 4), 3u);
  EXPECT_EQ(q.target_node(2, 0, 4), 1u);
}

TEST(Vma, PagesAndContains) {
  Vma v;
  v.start = 0x10000;
  v.end = 0x14000;
  EXPECT_EQ(v.pages(), 4u);
  EXPECT_TRUE(v.contains(0x10000));
  EXPECT_TRUE(v.contains(0x13fff));
  EXPECT_FALSE(v.contains(0x14000));
}

TEST(VmHelpers, Alignment) {
  EXPECT_EQ(page_align_down(0x12345), 0x12000u);
  EXPECT_EQ(page_align_up(0x12345), 0x13000u);
  EXPECT_EQ(page_align_up(0x12000), 0x12000u);
  EXPECT_EQ(vpn_of(0x12345), 0x12u);
  EXPECT_EQ(addr_of(0x12), 0x12000u);
}

}  // namespace
}  // namespace numasim::vm
