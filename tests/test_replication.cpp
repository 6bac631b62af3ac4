// Tests for the read-only replication extension (the paper's future work:
// "replicating read-only pages among NUMA nodes so as to achieve local
// access performance from anywhere").
#include <gtest/gtest.h>

#include <vector>

#include "kern/kernel.hpp"

namespace numasim::kern {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : topo_(topo::Topology::quad_opteron()),
        k_(kern::KernelConfig{.topology = topo_, .backing = mem::Backing::kMaterialized,
                              .replication = true}) {
    pid_ = k_.create_process("repl");
  }

  ThreadCtx ctx_on(topo::CoreId core, sim::Time clock = 0) {
    ThreadCtx t;
    t.pid = pid_;
    t.core = core;
    t.clock = clock;
    return t;
  }

  /// Buffer on node 0, populated + filled with a pattern.
  vm::Vaddr make_buffer(std::uint64_t npages) {
    ThreadCtx t = ctx_on(0);
    len_ = npages * mem::kPageSize;
    const vm::Vaddr a = k_.sys_mmap(t, len_, vm::Prot::kReadWrite, {}, "r");
    k_.access(t, a, len_, vm::Prot::kWrite, 3500.0);
    std::vector<std::byte> data(len_);
    for (std::size_t i = 0; i < len_; ++i) data[i] = static_cast<std::byte>(i * 11);
    k_.poke(pid_, a, data);
    return a;
  }

  topo::Topology topo_;
  kern::Kernel k_;
  Pid pid_ = 0;
  std::uint64_t len_ = 0;
};

TEST_F(ReplicationTest, DisabledByDefault) {
  Kernel plain(KernelConfig{.topology = topo_, .backing = mem::Backing::kPhantom});
  const Pid pid = plain.create_process();
  ThreadCtx t;
  t.pid = pid;
  const vm::Vaddr a = plain.sys_mmap(t, mem::kPageSize, vm::Prot::kReadWrite);
  plain.access(t, a, mem::kPageSize, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(plain.sys_madvise(t, a, mem::kPageSize, Advice::kReplicate), -kENOSYS);
}

TEST_F(ReplicationTest, ReadersGetLocalReplicas) {
  const vm::Vaddr a = make_buffer(8);
  ThreadCtx t0 = ctx_on(0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kReplicate), 0);

  // Readers on nodes 1, 2, 3: each first read creates that node's replicas.
  for (topo::CoreId core : {4u, 8u, 12u}) {
    ThreadCtx t = ctx_on(core, sim::seconds(1));
    const AccessResult r = k_.access(t, a, len_, vm::Prot::kRead, 3500.0);
    EXPECT_EQ(r.sigsegv_delivered, 0u);
  }
  EXPECT_EQ(k_.replica_pages(pid_), 3u * 8u);
  EXPECT_EQ(k_.stats().replica_pages, 24u);
  // Home pages stay on node 0.
  EXPECT_EQ(k_.pages_on_node(pid_, a, len_, 0), 8u);
}

TEST_F(ReplicationTest, RepeatReadsAreLocalAndCheaper) {
  const vm::Vaddr a = make_buffer(64);
  ThreadCtx t0 = ctx_on(0);

  // Baseline: remote read without replication.
  ThreadCtx remote = ctx_on(12, sim::seconds(1));
  k_.access(remote, a, len_, vm::Prot::kRead, 3500.0);
  const sim::Time cold = remote.clock - sim::seconds(1);

  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kReplicate), 0);
  ThreadCtx warmup = ctx_on(12, sim::seconds(2));
  k_.access(warmup, a, len_, vm::Prot::kRead, 3500.0);  // builds replicas

  ThreadCtx warm = ctx_on(12, sim::seconds(3));
  k_.access(warm, a, len_, vm::Prot::kRead, 3500.0);
  const sim::Time replicated = warm.clock - sim::seconds(3);
  // Replica reads are local: faster than the 2-hop remote read.
  EXPECT_LT(replicated, cold);
}

TEST_F(ReplicationTest, WriteCollapsesToWriterNode) {
  const vm::Vaddr a = make_buffer(8);
  ThreadCtx t0 = ctx_on(0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kReplicate), 0);

  for (topo::CoreId core : {4u, 8u}) {
    ThreadCtx t = ctx_on(core, sim::seconds(1));
    k_.access(t, a, len_, vm::Prot::kRead, 3500.0);
  }
  ASSERT_EQ(k_.replica_pages(pid_), 16u);

  // Writer on node 3: replicas die, pages move to node 3, data intact.
  ThreadCtx w = ctx_on(13, sim::seconds(2));
  k_.access(w, a, len_, vm::Prot::kReadWrite, 3500.0);
  EXPECT_EQ(k_.replica_pages(pid_), 0u);
  EXPECT_EQ(k_.stats().replica_collapses, 8u);
  EXPECT_EQ(k_.pages_on_node(pid_, a, len_, 3), 8u);

  std::vector<std::byte> out(len_);
  ASSERT_TRUE(k_.peek(pid_, a, out));
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(out[i], static_cast<std::byte>(i * 11));

  // Writes work normally afterwards (flag cleared).
  const AccessResult again = k_.access(w, a, len_, vm::Prot::kWrite, 3500.0);
  EXPECT_EQ(again.nexttouch_migrations, 0u);
}

TEST(ReplicationRangeLock, WriteCollapsesUnderRangeModel) {
  // The collapse path serializes against migration through the lock model;
  // the scalable range engine must reach the same end state as coarse.
  const topo::Topology topo = topo::Topology::quad_opteron();
  Kernel k(KernelConfig{.topology = topo,
                        .backing = mem::Backing::kMaterialized,
                        .lock_model = LockModel::kRange,
                        .replication = true});
  const Pid pid = k.create_process("repl-range");

  ThreadCtx t0;
  t0.pid = pid;
  t0.core = 0;
  const std::uint64_t len = 8 * mem::kPageSize;
  const vm::Vaddr a = k.sys_mmap(t0, len, vm::Prot::kReadWrite, {}, "r");
  k.access(t0, a, len, vm::Prot::kWrite, 3500.0);
  std::vector<std::byte> data(len);
  for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::byte>(i * 7);
  k.poke(pid, a, data);
  ASSERT_EQ(k.sys_madvise(t0, a, len, Advice::kReplicate), 0);

  for (topo::CoreId core : {4u, 8u}) {
    ThreadCtx t;
    t.pid = pid;
    t.core = core;
    t.clock = sim::seconds(1);
    k.access(t, a, len, vm::Prot::kRead, 3500.0);
  }
  ASSERT_EQ(k.replica_pages(pid), 16u);

  ThreadCtx w;
  w.pid = pid;
  w.core = 13;  // node 3
  w.clock = sim::seconds(2);
  k.access(w, a, len, vm::Prot::kReadWrite, 3500.0);
  EXPECT_EQ(k.replica_pages(pid), 0u);
  EXPECT_EQ(k.stats().replica_collapses, 8u);
  EXPECT_EQ(k.pages_on_node(pid, a, len, 3), 8u);

  std::vector<std::byte> out(len);
  ASSERT_TRUE(k.peek(pid, a, out));
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(out[i], static_cast<std::byte>(i * 7));
  k.validate(pid);
}

TEST_F(ReplicationTest, MunmapFreesReplicaFrames) {
  const vm::Vaddr a = make_buffer(8);
  ThreadCtx t0 = ctx_on(0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kReplicate), 0);
  ThreadCtx t1 = ctx_on(4, sim::seconds(1));
  k_.access(t1, a, len_, vm::Prot::kRead, 3500.0);
  ASSERT_GT(k_.replica_pages(pid_), 0u);

  EXPECT_EQ(k_.sys_munmap(t0, a, len_), 0);
  EXPECT_EQ(k_.phys().total_used_frames(), 0u);
  EXPECT_EQ(k_.replica_pages(pid_), 0u);
}

TEST_F(ReplicationTest, DontNeedDropsReplicas) {
  const vm::Vaddr a = make_buffer(4);
  ThreadCtx t0 = ctx_on(0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kReplicate), 0);
  ThreadCtx t1 = ctx_on(8, sim::seconds(1));
  k_.access(t1, a, len_, vm::Prot::kRead, 3500.0);
  ASSERT_EQ(k_.replica_pages(pid_), 4u);
  EXPECT_EQ(k_.sys_madvise(t0, a, len_, Advice::kDontNeed), 0);
  EXPECT_EQ(k_.replica_pages(pid_), 0u);
  EXPECT_EQ(k_.phys().total_used_frames(), 0u);
}

TEST_F(ReplicationTest, ReplicateOverridesNextTouch) {
  const vm::Vaddr a = make_buffer(4);
  ThreadCtx t0 = ctx_on(0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kMigrateOnNextTouch), 0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kReplicate), 0);
  ThreadCtx t1 = ctx_on(4, sim::seconds(1));
  const AccessResult r = k_.access(t1, a, len_, vm::Prot::kRead, 3500.0);
  EXPECT_EQ(r.nexttouch_migrations, 0u);  // replicated, not migrated
  EXPECT_EQ(k_.pages_on_node(pid_, a, len_, 0), 4u);
  EXPECT_EQ(k_.replica_pages(pid_), 4u);
}

// Property: replicas on every node never change what readers observe, for
// any interleaving of readers before the collapse.
class ReplicaProperty : public ReplicationTest,
                        public ::testing::WithParamInterface<unsigned> {};

TEST_P(ReplicaProperty, DataIdenticalEverywhere) {
  const unsigned readers = GetParam();
  const vm::Vaddr a = make_buffer(16);
  ThreadCtx t0 = ctx_on(0);
  ASSERT_EQ(k_.sys_madvise(t0, a, len_, Advice::kReplicate), 0);
  for (unsigned i = 0; i < readers; ++i) {
    ThreadCtx t = ctx_on((i % 4) * 4 + i % 2, sim::seconds(1 + i));
    std::vector<std::byte> out(len_);
    k_.access(t, a, len_, vm::Prot::kRead, 3500.0);
    ASSERT_TRUE(k_.peek(pid_, a, out));
    for (std::size_t j = 0; j < out.size(); j += 97)
      ASSERT_EQ(out[j], static_cast<std::byte>(j * 11));
  }
  EXPECT_LE(k_.replica_pages(pid_), 3u * 16u);
}

INSTANTIATE_TEST_SUITE_P(Readers, ReplicaProperty, ::testing::Values(1, 3, 6, 12));

}  // namespace
}  // namespace numasim::kern
