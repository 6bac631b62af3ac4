// The simulated Linux memory-management kernel.
//
// This is the heart of the reproduction: it implements, over the simulated
// hardware, the exact mechanisms the paper studies —
//   * move_pages(2) in both its pre-patch (quadratic) and patched (linear)
//     forms (paper Sec. 3.1),
//   * migrate_pages(2) whole-process migration,
//   * mprotect + SIGSEGV delivery, enabling the user-space next-touch of
//     Fig. 1,
//   * madvise(MADV_MIGRATE_ON_NEXT_TOUCH) + fault-path migration, the
//     kernel next-touch of Fig. 2,
//   * first-touch / bind / interleave / preferred memory policies,
//   * page-table-lock and mmap_sem contention, TLB shootdowns.
//
// Every operation takes a ThreadCtx, advances its clock by the modelled
// cost, and attributes the time to a CostKind (this instrumentation is what
// regenerates the Fig. 6 breakdowns). Long operations expose batched
// "chunk" variants so the runtime can interleave concurrent threads at
// realistic lock granularity.
#pragma once

#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kern/cost_model.hpp"
#include "kern/errno.hpp"
#include "kern/event_log.hpp"
#include "kern/fault_injector.hpp"
#include "kern/hw_state.hpp"
#include "kern/kmigrated.hpp"
#include "kern/numab.hpp"
#include "kern/placement.hpp"
#include "kern/replication.hpp"
#include "kern/stlb.hpp"
#include "kern/tiers.hpp"
#include "kern/txn_migrate.hpp"
#include "mem/phys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "topo/topology.hpp"
#include "vm/address_space.hpp"

namespace numasim::kern {

using Pid = std::uint32_t;
using ThreadId = std::uint32_t;

/// Execution context of one simulated thread, threaded through every kernel
/// entry point. The runtime owns it and awaits `clock` after each call.
struct ThreadCtx {
  ThreadId tid = 0;
  Pid pid = 0;
  topo::CoreId core = 0;
  sim::Time clock = 0;
  sim::CostStats stats;
  unsigned signal_depth = 0;  ///< >0 while running inside a SIGSEGV handler
  /// Host-side cache of this thread's numa-balancing fault table
  /// (&process.numab.tasks[tid]; map nodes are pointer-stable and never
  /// erased). Avoids a tree lookup on every hint fault.
  NumabTaskStats* numab_ts = nullptr;
  /// Per-thread software TLB of extent descriptors: lets access() skip the
  /// PTE walk for chunk-spanning extents proven quiet since the process's
  /// last mapping change (see kern/stlb.hpp). Host-side only; simulated
  /// cost-identical.
  SoftTlb stlb;
};

/// Bill `dur` to `t` as `kind`: the thread clock and its CostStats advance
/// together, so the Fig. 6 breakdown sums to the time the thread spent.
/// Every fixed cost is billed here; the kernel's transfer helpers
/// (charge_copy, charge_stream, zero_fill, flush_copy_batch) and lock waits
/// (take_slot, wait_until) bill the rest.
inline void charge(ThreadCtx& t, sim::Time dur, sim::CostKind kind) {
  t.clock += dur;
  t.stats.add(kind, dur);
}

/// Information passed to a registered SIGSEGV handler.
struct SigInfo {
  vm::Vaddr fault_addr = 0;
  vm::Prot attempted = vm::Prot::kRead;
};

/// A process-wide SIGSEGV handler; runs synchronously in the faulting
/// thread's context and may issue further syscalls (as the user-space
/// next-touch library does).
using SegvHandler = std::function<void(ThreadCtx&, const SigInfo&)>;

enum class Advice : std::uint8_t {
  kNormal,
  kWillNeed,
  kDontNeed,
  /// The paper's new advice: migrate each page to whichever node next
  /// touches it.
  kMigrateOnNextTouch,
  /// Extension (the paper's future work): serve reads from per-node
  /// replicas; the first write collapses them.
  kReplicate,
};

enum class MovePagesImpl : std::uint8_t {
  kQuadratic,  ///< Linux <= 2.6.28: per-page linear scan of the request array
  kLinear,     ///< the paper's patch (merged in 2.6.29)
};

/// Concurrency model of the migration paths.
enum class LockModel : std::uint8_t {
  /// Paper-faithful (2.6.29-era) locking: every migration path serializes on
  /// one process-wide mmap_sem timeline plus one migration pipeline, and
  /// each migrated page pays a full all-core TLB shootdown. This is the
  /// default and reproduces Fig. 7's flat/collapsing thread-scaling curves.
  kCoarse,
  /// Scalable engine: migration paths take the whole-space lock *shared*
  /// (only mmap/munmap/mprotect surgery is exclusive), per-VMA range locks
  /// serialize only overlapping page runs, and the shootdowns of one
  /// contiguous migrated run coalesce into a single IPI round. Disjoint
  /// ranges then migrate in parallel up to the copy hardware's bandwidth.
  kRange,
};

/// Aggregate construction parameters for a Kernel: one struct instead of a
/// positional constructor plus accreted setters. The kernel owns a copy, so
/// configs are freely reusable/temporary. rt::Machine::Config is an alias.
struct KernelConfig {
  topo::Topology topology = topo::Topology::quad_opteron();
  mem::Backing backing = mem::Backing::kMaterialized;
  CostModel cost{};
  LockModel lock_model = LockModel::kCoarse;
  MovePagesImpl move_pages_impl = MovePagesImpl::kLinear;
  /// Which migration engine the page-moving paths use (move_pages, the
  /// ranged/async interfaces, mbind(MPOL_MF_MOVE), kmigrated batches, numab
  /// promotion). kStopAndCopy is paper-faithful and runs event-for-event
  /// identical to kernels predating the transactional engine;
  /// kTransactional shadow-copies while the page stays mapped and falls
  /// back to stop-and-copy per page on retry exhaustion (see
  /// kern/txn_migrate.hpp and docs/failure-semantics.md). migrate_pages(2)
  /// whole-process migration always stop-and-copies: its pages belong to
  /// another (quiesced) process, so there is no running writer to avoid
  /// stalling.
  MigrationMode migration_mode = MigrationMode::kStopAndCopy;
  std::uint64_t max_frames_per_node = 0;  ///< 0 = topology default
  /// Automatic NUMA balancing (hint-fault sampling + migrate-on-fault).
  /// Disabled by default; see kern/numab.hpp and docs/scheduling.md.
  NumaBalancingConfig numa_balancing{};
  /// Memory-tier promotion/demotion knobs (kern/tiers.hpp). Disabled by
  /// default; promotion rides the numab hint-fault loop, so tiering needs
  /// numa_balancing.enabled for the proactive paths (direct demotion under
  /// allocation pressure works regardless). See docs/memory-tiers.md.
  TierConfig tiers{};
  /// Soft-TLB access fast path (kern/stlb.hpp): memoize walk results of
  /// chunk-spanning extents per thread and skip the PTE walk when a cached
  /// extent descriptor is still valid. Host-side speedup only — `stlb =
  /// false` is event-for-event identical in simulated cost and output (CI
  /// double-runs both).
  bool stlb = true;
};

/// Result of an access() call (MMU emulation).
struct AccessResult {
  std::uint64_t pages = 0;
  std::uint64_t minor_faults = 0;      ///< first-touch allocations
  std::uint64_t nexttouch_migrations = 0;
  std::uint64_t nexttouch_hits_local = 0;  ///< NT-marked but already local
  std::uint64_t sigsegv_delivered = 0;
};

/// Every machine-wide kernel counter, one row each: X(field, "registry
/// name"). It expands into the KernelStats fields (in row order) and into
/// the registry bindings of Kernel::set_metrics, so a counter cannot exist
/// unbound or under a second name. The registry names are an interface:
/// benches, bench/suite and the goldens read them by string.
#define NUMASIM_KERNEL_COUNTERS(X)                                                \
  X(minor_faults, "kern.minor_faults")                                            \
  X(protection_faults, "kern.protection_faults")                                  \
  X(nexttouch_faults, "kern.nexttouch_faults")                                    \
  X(pages_migrated_move, "kern.pages_migrated_move")                              \
  X(pages_migrated_process, "kern.pages_migrated_process")                        \
  X(pages_migrated_nexttouch, "kern.pages_migrated_nexttouch")                    \
  X(tlb_shootdowns, "kern.tlb_shootdowns")                                        \
  X(signals_delivered, "kern.signals_delivered")                                  \
  X(replica_pages, "kern.replica_pages")                                          \
  X(replica_collapses, "kern.replica_collapses")                                  \
  /* Degraded-mode accounting (memory pressure / fault injection): */             \
  /* aborted + rolled back migrations */                                          \
  X(migrations_failed, "kern.migrations_failed")                                  \
  /* transient copy failures retried */                                           \
  X(migration_retries, "kern.migration_retries")                                  \
  /* NT faults resolved without moving */                                         \
  X(nexttouch_degraded, "kern.nexttouch_degraded")                                \
  /* lost + re-sent shootdown IPIs */                                             \
  X(shootdown_retries, "kern.shootdown_retries")                                  \
  X(signals_delayed, "kern.signals_delayed")  /* SIGSEGV deliveries delayed */    \
  X(alloc_stalls, "kern.alloc_stalls")  /* first-touch reclaim stalls */          \
  /* kmigrated (async per-node migration daemons): */                             \
  /* batches accepted by a daemon */                                              \
  X(kmigrated_batches, "kern.kmigrated.batches")                                  \
  X(kmigrated_pages, "kern.kmigrated.pages")  /* pages migrated by daemons */     \
  /* batches lost (fault injection) */                                            \
  X(kmigrated_batches_dropped, "kern.kmigrated.batches_dropped")                  \
  /* per-page ENOMEM inside a batch */                                            \
  X(kmigrated_pages_failed, "kern.kmigrated.pages_failed")                        \
  /* Automatic NUMA balancing: */                                                 \
  X(numab_scans, "kern.numab.scans")  /* scan-clock windows executed */           \
  /* PTEs tagged for hint faults */                                               \
  X(numab_pages_scanned, "kern.numab.pages_scanned")                              \
  X(numab_hint_faults, "kern.numab.hint_faults")  /* NUMA hint faults taken */    \
  /* ... whose page was local */                                                  \
  X(numab_hint_faults_local, "kern.numab.hint_faults_local")                      \
  /* remote faults awaiting 2nd ref */                                            \
  X(numab_promotions_deferred, "kern.numab.promotions_deferred")                  \
  /* pages handed to kmigrated */                                                 \
  X(numab_pages_promoted, "kern.numab.pages_promoted")                            \
  /* balancer core moves applied */                                               \
  X(numab_task_migrations, "kern.numab.task_migrations")                          \
  /* interchange pair swaps chosen */                                             \
  X(numab_task_swaps, "kern.numab.task_swaps")                                    \
  /* Transactional migration (kern/txn_migrate): */                               \
  /* pages committed by atomic flip */                                            \
  X(txn_commits, "kern.migrate.txn.commits")                                      \
  /* dirty hits re-copied with backoff */                                         \
  X(txn_dirty_retries, "kern.migrate.txn.dirty_retries")                          \
  /* fell back to stop-and-copy / deferred */                                     \
  X(txn_degraded, "kern.migrate.txn.degraded")                                    \
  /* retry budget exhausted / permanent fault */                                  \
  X(txn_aborted, "kern.migrate.txn.aborted")                                      \
  /* Memory tiering (kern/tiers): */                                              \
  /* pages moved up-tier via numab/kmigrated */                                   \
  X(tier_promotions, "kern.tier.promotions")                                      \
  /* pages moved down-tier (daemon or direct) */                                  \
  X(tier_demotions, "kern.tier.demotions")                                        \
  /* watermark/direct demotion walks run */                                       \
  X(tier_demote_passes, "kern.tier.demote_passes")                                \
  /* Soft-TLB access fast path (kern/stlb.hpp). Host-side instrumentation: */     \
  /* hit/miss ratios never influence simulated behaviour. */                      \
  /* Only extents of at least vm::PageTable::kChunkPages pages are looked up, */  \
  /* so shorter accesses count as neither a hit nor a miss. */                    \
  X(stlb_hits, "kern.stlb.hits")  /* extents served without a PTE walk */         \
  X(stlb_misses, "kern.stlb.misses")  /* lookups that fell to the slow walk */    \
  /* mapping_gen bumps (all processes) */                                         \
  X(stlb_invalidations, "kern.stlb.invalidations")                                \
  /* Async kmigrated batches still in flight when the kernel was destroyed; */    \
  /* accounted (never silently dropped) so an attached metrics registry */        \
  /* keeps the evidence across kernel generations. */                             \
  X(kmigrated_dropped_at_teardown, "kern.kmigrated.dropped")

/// Machine-wide counters (diagnostics, tests, numa_maps-style reports), one
/// field per NUMASIM_KERNEL_COUNTERS row.
struct KernelStats {
#define NUMASIM_KERNEL_STATS_FIELD(field, name) std::uint64_t field = 0;
  NUMASIM_KERNEL_COUNTERS(NUMASIM_KERNEL_STATS_FIELD)
#undef NUMASIM_KERNEL_STATS_FIELD
};

/// Every latency/size histogram the kernel feeds, one row each: X(member,
/// "registry name"). It expands into Kernel's cached histogram pointers,
/// their reset on detach and their registry lookups in set_metrics.
#define NUMASIM_KERNEL_HISTOGRAMS(X)                        \
  X(h_fault_, "kern.fault_service_ns")                      \
  X(h_migrate_page_, "kern.migrate_page_ns")                \
  X(h_lock_wait_, "kern.lock_wait_ns")                      \
  X(h_shootdown_rounds_, "kern.shootdown_rounds")           \
  X(h_kmigrated_batch_, "kern.kmigrated.batch_latency_ns")  \
  X(h_numab_scan_, "kern.numab.scan_pages")                 \
  X(h_txn_retries_, "kern.migrate.txn.retries")

class Kernel {
 public:
  /// The one construction path: every knob comes in through the config, of
  /// which the kernel keeps its own copy (including the topology).
  explicit Kernel(KernelConfig cfg);
  /// Detaches any metrics registry (retiring bound counters so an attached
  /// registry keeps accumulating across kernel generations). Not movable:
  /// the registry and sinks hold pointers into this object.
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const KernelConfig& config() const { return cfg_; }
  const topo::Topology& topo() const { return topo_; }
  const CostModel& cost() const { return cost_; }
  mem::PhysMem& phys() { return phys_; }
  const mem::PhysMem& phys() const { return phys_; }
  const KernelStats& stats() const { return kstats_; }

  // --- observability ----------------------------------------------------------
  /// Subscribe a tracepoint sink: every kernel tracepoint (instant events
  /// and duration spans) fans out to each attached sink, stamped with the
  /// emitting thread's simulated clock. Sinks are not owned; an EventLog is
  /// one. With no sinks attached the tracepoints reduce to one empty-vector
  /// check — no simulated cost, no randomness, byte-identical timing.
  void add_trace_sink(obs::TraceSink* sink);
  void remove_trace_sink(obs::TraceSink* sink);
  bool tracing() const { return !sinks_.empty(); }

  /// Attach/detach a metrics registry (nullptr = off; not owned). The
  /// kernel binds every NUMASIM_KERNEL_COUNTERS row as a "kern.*" counter,
  /// per-node used-frame gauges as "mem.used_frames.nodeN", and feeds the
  /// NUMASIM_KERNEL_HISTOGRAMS histograms. Detaching (or destroying the
  /// kernel) retires the bound counters into the registry so totals survive
  /// the kernel — which means an attached registry MUST outlive the kernel
  /// (or be detached first). Recording is host-side only: simulated timing
  /// is unaffected.
  void set_metrics(obs::Registry* reg);
  obs::Registry* metrics() { return metrics_; }

  /// App-level tracepoints for the runtime and user code: an instant marker
  /// or a duration span [begin, t.clock] in the calling thread's timeline.
  /// No-ops (beyond one branch) when no sink is attached.
  void emit_instant(const ThreadCtx& t, std::string_view name,
                    std::string_view cat = "app");
  void emit_span(const ThreadCtx& t, std::string_view name, sim::Time begin,
                 std::string_view cat = "app");

  /// Attach/detach a fault injector (nullptr = off; not owned). Node caps in
  /// the injector's plan are applied to the frame allocator immediately;
  /// detaching restores the original capacities. With no injector the
  /// kernel draws no randomness and charges baseline costs exactly.
  void set_fault_injector(FaultInjector* inj);

  // --- process management ----------------------------------------------------
  Pid create_process(std::string name = {});
  vm::AddressSpace& address_space(Pid pid) { return proc(pid).as; }
  void set_sigsegv_handler(Pid pid, SegvHandler handler);
  void set_task_policy(Pid pid, const vm::MemPolicy& pol);

  // --- memory-management system calls -----------------------------------------
  /// mmap(MAP_PRIVATE|MAP_ANONYMOUS): lazily populated per `policy`.
  /// `huge` = MAP_HUGETLB: 2 MiB pages, populated block-wise; migration of
  /// huge pages is unsupported (as in Linux at the paper's time).
  vm::Vaddr sys_mmap(ThreadCtx& t, std::uint64_t len, vm::Prot prot,
                     const vm::MemPolicy& policy = {}, std::string name = {},
                     bool huge = false);
  SyscallResult sys_munmap(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len);
  SyscallResult sys_mprotect(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                             vm::Prot prot,
                             sim::CostKind attribute = sim::CostKind::kMprotectMark);
  SyscallResult sys_madvise(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                            Advice advice);
  /// mbind(2). With `move_existing` (MPOL_MF_MOVE), pages already present
  /// that violate the new policy are migrated to comply.
  SyscallResult sys_mbind(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                          const vm::MemPolicy& policy, bool move_existing = false);
  SyscallResult sys_set_mempolicy(ThreadCtx& t, const vm::MemPolicy& policy);
  SyscallResult sys_get_mempolicy(ThreadCtx& t, vm::MemPolicy& out);
  SyscallResult sys_getcpu(ThreadCtx& t, topo::CoreId* core, topo::NodeId* node);

  /// move_pages(2). `nodes` empty => query-only mode (status = current node).
  /// Returns ok() or error(); per-page results land in `status` (node id or
  /// negative errno per page).
  SyscallResult sys_move_pages(ThreadCtx& t, std::span<const vm::Vaddr> pages,
                               std::span<const topo::NodeId> nodes,
                               std::span<int> status);

  /// migrate_pages(2): move every page of `target` on a node in `from` to the
  /// corresponding slot in `to`. count() = pages migrated, or error().
  SyscallResult sys_migrate_pages(ThreadCtx& t, Pid target, topo::NodeMask from,
                                  topo::NodeMask to);

  /// A contiguous migration request for the range-based interface.
  struct MoveRange {
    vm::Vaddr addr = 0;
    std::uint64_t len = 0;
    topo::NodeId node = 0;
  };

  /// The paper's proposed interface improvement (Sec. 6: "improving the
  /// LINUX migration system call interface to reduce the move_pages
  /// overhead"): one call migrates whole ranges. The kernel walks pages
  /// sequentially (no per-page virtual-address lookup, no status array),
  /// so the per-page control cost drops and the base cost amortizes over
  /// all ranges. Returns count() = pages migrated, or error(); an invalid
  /// range fails the whole call before any page moves.
  SyscallResult sys_move_pages_ranged(ThreadCtx& t,
                                      std::span<const MoveRange> ranges);

  /// Asynchronous variant of the ranged interface: each range is validated
  /// and handed to the destination node's kmigrated daemon as one batch;
  /// the caller pays only the submission cost and returns immediately while
  /// the copies complete on the daemon's timeline. count() = pages queued
  /// (dropped/failed pages surface through kern.kmigrated.* counters and
  /// tracepoints, as with a real async engine). Invalid ranges fail the
  /// whole call up front, like sys_move_pages_ranged.
  SyscallResult sys_move_pages_async(ThreadCtx& t,
                                     std::span<const MoveRange> ranges);

  /// Block until every kmigrated daemon has drained: the calling thread's
  /// clock advances to the last batch completion (the wait is attributed to
  /// kLockWait, as any other queueing delay).
  void kmigrated_drain(ThreadCtx& t);

  // --- batched lower-level entry points (used by the runtime so concurrent
  // --- threads interleave at realistic lock granularity) ----------------------
  /// Charge the fixed move_pages entry cost (mmap_sem etc.). Call once.
  void move_pages_enter(ThreadCtx& t, std::size_t total_pages);
  /// Process up to `chunk.size()` pages. Same per-page semantics as the
  /// full syscall. `request_total` = full request size (the unpatched
  /// implementation's scan cost depends on it).
  void move_pages_chunk(ThreadCtx& t, std::span<const vm::Vaddr> chunk,
                        std::span<const topo::NodeId> nodes, std::span<int> status,
                        std::size_t request_total);

  // --- MMU emulation ------------------------------------------------------------
  /// Touch [addr, addr+len): page-faults fire exactly as on real hardware
  /// (first-touch placement, next-touch migration, SIGSEGV delivery).
  /// Memory traffic for already-mapped pages is charged at `stream_rate`
  /// bytes/us if nonzero (0 = only fault handling, no data-plane charge —
  /// used when a cache model above accounts for the traffic itself).
  /// A range past the user address space faults at its first unmapped page,
  /// or at AddressSpace::kUserTop; one whose end wraps past 2^64 is no
  /// exception.
  AccessResult access(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                      vm::Prot want, double stream_rate_bytes_per_us);

  /// Strided touch for blocked matrix kernels: `rows` segments of
  /// `row_bytes` at base, base+stride, ... Faults are handled per page
  /// exactly as in access(); the data-plane traffic is aggregated per source
  /// node and charged in bulk, scaled by `traffic_scale` (a cache model
  /// above uses >1 for out-of-cache traffic amplification). One engine
  /// event regardless of size, so million-page tiles stay simulable.
  /// When `bytes_by_node` is non-null it is resized to num_nodes and filled
  /// with the touched bytes per holding node; pass stream_rate 0 in that
  /// case and charge the traffic yourself (e.g. in slices, via
  /// charge_stream) so concurrent threads interleave fairly.
  /// A row that ends past AddressSpace::kUserTop, or wraps past 2^64, is
  /// touched as access() touches such a range, and no later row is; a row
  /// whose start wraps past 2^64 faults at kUserTop.
  AccessResult access_strided(ThreadCtx& t, vm::Vaddr base, std::uint64_t rows,
                              std::uint64_t row_bytes, std::uint64_t stride_bytes,
                              vm::Prot want, double stream_rate_bytes_per_us,
                              double traffic_scale = 1.0,
                              std::vector<std::uint64_t>* bytes_by_node = nullptr);

  /// Charge one data stream of `bytes` between the calling core and
  /// `mem_node` at `rate` bytes/us (plus one access latency), advancing the
  /// thread clock as kMemAccess. Building block for layered traffic models,
  /// and access()'s per-run charge. `dir` matters only on tiers with
  /// asymmetric write bandwidth (e.g. kFar).
  void charge_stream(ThreadCtx& t, topo::NodeId mem_node, std::uint64_t bytes,
                     double rate, MemDir dir = MemDir::kRead) {
    const topo::NodeId core_node = topo_.node_of_core(t.core);
    const sim::Time lat = topo_.access_latency(core_node, mem_node);
    const sim::Slot s = hw_.stream(t.clock, core_node, mem_node, bytes, rate, dir);
    t.stats.add(sim::CostKind::kMemAccess, s.finish + lat - t.clock);
    t.clock = s.finish + lat;
  }

  /// Convenience: access + actually move bytes when frames are materialized.
  int read_bytes(ThreadCtx& t, vm::Vaddr addr, std::span<std::byte> out);
  int write_bytes(ThreadCtx& t, vm::Vaddr addr, std::span<const std::byte> in);

  /// User-space memcpy between two mapped ranges of the same process:
  /// faults pages in, charges the SSE copy rate, copies real bytes when
  /// materialized. (The Fig. 4 "memcpy" baseline.)
  int user_memcpy(ThreadCtx& t, vm::Vaddr dst, vm::Vaddr src, std::uint64_t len);

  /// Timing-free teardown of a mapping — the process-exit path RAII handles
  /// use from destructors, where no ThreadCtx exists to charge. Frees
  /// frames and replicas and drops the VMAs without touching any clock,
  /// stat, or tracepoint. Unmapped/partial ranges are fine (idempotent).
  void teardown_unmap(Pid pid, vm::Vaddr addr, std::uint64_t len);

  // --- timing-free inspection (tests, verification harnesses) -------------------
  /// Node currently holding the page, or kInvalidNode if not present.
  topo::NodeId page_node(Pid pid, vm::Vaddr addr) const;
  /// Copy bytes out without any timing or fault side effects. False when the
  /// range is not fully present or not materialized.
  bool peek(Pid pid, vm::Vaddr addr, std::span<std::byte> out) const;
  bool poke(Pid pid, vm::Vaddr addr, std::span<const std::byte> in);
  /// Total replica pages currently alive for `pid` (extension feature).
  std::uint64_t replica_pages(Pid pid) const { return proc(pid).replicas.total_replicas(); }

  /// Count of present pages in range whose frame lives on `node`; 0 for an
  /// empty range. The range is clamped at the end of the highest mapping
  /// (so at kUserTop at most).
  std::uint64_t pages_on_node(Pid pid, vm::Vaddr addr, std::uint64_t len,
                              topo::NodeId node) const;
  /// numa_maps-style text report for a process.
  std::string numa_maps(Pid pid) const;

  /// Consistency audit for tests and fuzzing: every present PTE references a
  /// live frame, every replica frame is live and distinct from its home,
  /// the per-node used-frame counts equal what the page tables + replica
  /// tables reference, and the allocator's books balance (PhysMem::audit).
  /// Throws std::logic_error on violation.
  void validate(Pid pid) const;

  /// Soft-TLB audit: additionally re-resolves every *current-generation*
  /// descriptor in `t`'s software TLB against the page table — each covered
  /// page must be present, on the descriptor's node, flag-quiet, and carry
  /// the hardware permissions (and dirty bit, for write descriptors) the
  /// fast path assumes. Stale-generation entries are skipped (that is the
  /// invalidation design working). Throws std::logic_error on violation: a
  /// forgotten mapping_gen bump site fails loudly here.
  void validate(const ThreadCtx& t) const;

  /// Current mapping generation of `pid` (soft-TLB invalidation epoch).
  /// Exposed for tests and diagnostics; bumps monotonically.
  std::uint64_t mapping_generation(Pid pid) const { return proc(pid).mapping_gen; }

  /// Per-node used/free frame summary (numactl --hardware style).
  std::string meminfo() const;

  /// Percent of the fast tier's frame capacity currently in use (rounded
  /// down); 0 when the topology has no kFast capacity. Exported as the
  /// kern.tier.fast_occupancy gauge.
  std::int64_t fast_occupancy_pct() const;

  // --- automatic NUMA balancing (consumed by sched::Balancer) -------------------
  /// Decayed per-node hint-fault scores of (pid, tid) as of `now` (empty if
  /// the task has taken no hint fault yet). Applies the lazy decay; host-side
  /// only, charges nothing.
  std::vector<double> numab_task_faults(Pid pid, ThreadId tid, sim::Time now);
  /// The node holding the largest decayed fault score of (pid, tid),
  /// provided it owns at least 40 % of the total mass;
  /// topo::kInvalidNode otherwise.
  topo::NodeId numab_preferred_node(Pid pid, ThreadId tid, sim::Time now);
  /// Balancer callbacks: account one applied task move / one chosen
  /// interchange pair (counters + kNumaTaskMigrate tracepoint).
  void numab_note_task_migration(const ThreadCtx& t, topo::CoreId from,
                                 topo::CoreId to);
  void numab_note_task_swap();

 private:
  friend class TxnMigrator;  // the state machine charges/traces through us

  struct Process {
    Pid pid = 0;
    std::string name;
    vm::AddressSpace as;
    vm::MemPolicy task_policy;  // set_mempolicy default for new VMAs
    SegvHandler segv;
    OwnedTimeline mmap_lock;
    sim::Timeline migration_pipeline;
    // LockModel::kRange state: the whole-space rwsem (shared by migration
    // paths, exclusive for mmap surgery) and the per-VMA range locks, keyed
    // by Vma::lock_id so VMA splits/merges don't orphan lock state.
    sim::SharedTimeline mmap_rw;
    std::unordered_map<std::uint64_t, RangeLock> vma_locks;
    ReplicaTable replicas;
    NumabState numab;
    // Per-chunk per-node present-page counts; see placement.hpp. Every site
    // that maps, remaps, or unmaps a home frame keeps it current, and
    // validate() audits it against the page table.
    PlacementCounts placement;
    // Soft-TLB invalidation epoch (kern/stlb.hpp): bumped by
    // stlb_invalidate() at every site that can narrow what a cached extent
    // descriptor promises. Descriptors stamped with an older generation
    // simply miss; validate(const ThreadCtx&) audits the current ones.
    std::uint64_t mapping_gen = 0;
  };

  Process& proc(Pid pid);
  const Process& proc(Pid pid) const;

  /// Accumulates page-copy traffic per (from, to) node pair so a batch of
  /// migrations reserves the copy hardware once, not once per page — the
  /// same coalescing the stream charging does. Keeps concurrent migrating
  /// threads overlapping at realistic granularity. Each run carries the
  /// cost kind its copies are billed as, so one access can defer both
  /// next-touch migrations and replica creations; flush_copy_batch
  /// reserves adjacent runs between the same two nodes as one copy.
  struct CopyBatch {
    struct Run {
      topo::NodeId from;
      topo::NodeId to;
      std::uint64_t bytes;
      sim::CostKind kind;
    };
    std::vector<Run> runs;
    void add(topo::NodeId from, topo::NodeId to, std::uint64_t bytes,
             sim::CostKind kind) {
      if (!runs.empty() && runs.back().from == from && runs.back().to == to &&
          runs.back().kind == kind) {
        runs.back().bytes += bytes;
      } else {
        runs.push_back({from, to, bytes, kind});
      }
    }
  };

  /// Charge the accumulated copies of a batch, each run as its own kind.
  void flush_copy_batch(ThreadCtx& t, CopyBatch& batch);

  /// Page-fault entry point. Returns true if the access should be retried.
  /// Migration and replica copy traffic is deferred into `copies`.
  /// (Instrumented wrapper around do_handle_fault: "fault" span +
  /// kern.fault_service_ns histogram.)
  bool handle_fault(ThreadCtx& t, Process& p, vm::Vaddr addr, vm::Prot want,
                    AccessResult& res, CopyBatch& copies);
  bool do_handle_fault(ThreadCtx& t, Process& p, vm::Vaddr addr, vm::Prot want,
                       AccessResult& res, CopyBatch& copies);

  /// The per-extent page walk behind access() and access_strided(): the
  /// soft-TLB check and fill, the fault-retry loop, kDirty, replica
  /// resolution and per-page node resolution for [addr, end). Each
  /// page's touched bytes go to `on_page(node, bytes)` in address order (a
  /// soft-TLB hit makes one call for the whole extent); `on_fault()` runs
  /// before every fault, so a caller charging runs in order flushes first.
  /// Only extents of at least vm::PageTable::kChunkPages pages are looked up
  /// or cached (docs/performance.md §6). Defined in kernel_core.cpp, the
  /// only user; templated so neither caller pays an indirect call per page.
  template <typename OnPage, typename OnFault>
  void walk_extent(ThreadCtx& t, Process& p, vm::Vaddr addr, vm::Vaddr end,
                   vm::Prot want, topo::NodeId core_node, AccessResult& res,
                   CopyBatch& copies, OnPage&& on_page, OnFault&& on_fault);

  /// The per-page step of every access walk, on a PTE that allows the
  /// access: a write sets kDirty. Returns the node that serves the access,
  /// which for a read of a kReplica page is the replica resolve_replica
  /// picks for `core_node`.
  topo::NodeId access_page(ThreadCtx& t, Process& p, vm::Pte& pte, vm::Vpn vpn,
                           bool writing, topo::NodeId core_node,
                           CopyBatch& copies);

  /// For a read of a kReplica page: the node whose copy serves `reader`,
  /// creating the reader-local replica on first use (its copy deferred into
  /// `copies` as kReplicaCopy).
  topo::NodeId resolve_replica(ThreadCtx& t, Process& p, vm::Pte& pte, vm::Vpn vpn,
                               topo::NodeId reader, CopyBatch& copies);

  /// Write to a replicated page: free every replica, keep one frame on the
  /// writer's node, restore write permission.
  void collapse_replicas(ThreadCtx& t, Process& p, vm::Pte& pte, vm::Vpn vpn,
                         topo::NodeId writer);

  /// Allocate + map a never-touched page per policy (first touch).
  void populate_page(ThreadCtx& t, Process& p, const vm::Vma& vma, vm::Vpn vpn,
                     vm::Pte& pte);

  /// Huge mapping fault: populate the whole 2 MiB block around `vpn` with
  /// one fault (one TLB entry, one zero-fill of 2 MiB).
  void populate_huge_block(ThreadCtx& t, Process& p, const vm::Vma& vma,
                           vm::Vpn vpn);

  /// The node a first-touch fault on `vpn` of `vma` allocates on: the VMA's
  /// policy, else the task policy, resolved for the faulting core's node,
  /// which is also the answer when the policy names no node.
  topo::NodeId fault_target(const ThreadCtx& t, const Process& p,
                            const vm::Vma& vma, vm::Vpn vpn) const {
    const topo::NodeId local = topo_.node_of_core(t.core);
    const vm::MemPolicy& eff =
        vma.policy.mode != vm::PolicyMode::kDefault ? vma.policy : p.task_policy;
    const topo::NodeId target =
        eff.mode == vm::PolicyMode::kPreferredMany
            ? preferred_many_target(eff.nodes, local)
            : eff.target_node(vma.pgoff(vpn), local, topo_.num_nodes());
    return target == topo::kInvalidNode ? local : target;
  }

  /// A first-touch fault's allocation and PTE update, then the zero-fill of
  /// `bytes` through `node`'s DRAM, all billed as kAllocZero.
  void zero_fill(ThreadCtx& t, topo::NodeId node, std::uint64_t bytes) {
    charge(t, cost_.page_alloc + cost_.pte_update, sim::CostKind::kAllocZero);
    const sim::Slot z = hw_.stream(t.clock, topo_.node_of_core(t.core), node,
                                   bytes, cost_.zero_rate_bytes_per_us,
                                   MemDir::kWrite);
    t.stats.add(sim::CostKind::kAllocZero, z.finish - t.clock);
    t.clock = z.finish;
  }

  /// Copy `bytes` from `from` to `to` on the calling thread's clock at
  /// `rate` bytes/us, billed as `kind`.
  void charge_copy(ThreadCtx& t, topo::NodeId from, topo::NodeId to,
                   std::uint64_t bytes, double rate, sim::CostKind kind) {
    const sim::Slot c = hw_.copy(t.clock, from, to, bytes, rate);
    t.stats.add(kind, c.finish - t.clock);
    t.clock = c.finish;
  }

  /// Outcome of one page migration through the isolate→alloc→copy→remap
  /// pipeline. Anything but kOk means the pipeline rolled back: the original
  /// frame is still mapped and valid, nothing leaked.
  enum class MigrateResult : std::uint8_t {
    kOk,
    kNoMem,     ///< destination-node allocation failed (per-page -ENOMEM)
    kCopyFail,  ///< page copy failed permanently / retries exhausted (-EAGAIN)
    kDeferred,  ///< degraded transaction left in place (kDeferOnDegrade)
  };

  /// Which engine moves a page — the pipeline's second parameter.
  enum class MigrateEngine : std::uint8_t {
    /// cfg_.migration_mode; a degraded transaction stop-and-copies.
    kConfigured,
    /// migrate_pages(2): the target process is quiesced, so there is no
    /// running writer worth a transaction.
    kStopAndCopy,
    /// numab promotion: a degraded transaction leaves the page for a later
    /// scan pass instead of stop-and-copying a page only suspected hot.
    kDeferOnDegrade,
  };

  /// Who pays for a page move — the pipeline's first parameter. A caller
  /// bills its own clock `t`, with copies inline or deferred into `copies`
  /// (charged by the batch tail). A kmigrated stop-and-copy batch instead
  /// accrues control and stall time to `*service` and chains each copy on
  /// `*copy_cursor`; its `t` is the daemon's scratch context, which only
  /// hosts nested direct demotion and stamps tracepoints.
  struct PageBill {
    ThreadCtx& t;
    CopyBatch* copies = nullptr;
    sim::Time* service = nullptr;
    sim::Time* copy_cursor = nullptr;

    /// Time billed so far; the per-page delta feeds kern.migrate_page_ns.
    sim::Time billed() const {
      return service != nullptr ? *service + *copy_cursor : t.clock;
    }
  };

  /// How an entry point moves its pages: the pipeline's parameters, fixed
  /// for a batch. Who pays and which engine, plus the per-page control
  /// charge (as `control_kind`) and the cost kind of the copies.
  struct PageMover {
    PageBill bill;
    MigrateEngine engine;
    sim::Time control_cost;
    sim::CostKind control_kind;
    sim::CostKind copy_kind;
  };

  /// Resolved schedule of one page copy under the attached injector:
  /// `retries` failed attempts (each re-charged and backed off), then
  /// success iff `ok`. Without an injector: {0, true}, no randomness drawn.
  struct CopyOutcome {
    unsigned retries = 0;
    bool ok = true;
  };
  CopyOutcome copy_outcome();

  /// Allocation of a migration destination frame on exactly `node` — strict
  /// __GFP_THISNODE semantics, honoring the min watermark, consulting the
  /// injector. kInvalidFrame = the caller must degrade (per-page ENOMEM).
  mem::FrameId alloc_migration_frame(topo::NodeId node);

  /// Allocation backing a user fault: preferred-node with zonelist fallback;
  /// injected pressure charges a reclaim stall, and the reserve pool is the
  /// last resort (user faults reclaim deeper than migrations, so touch never
  /// fails while any frame exists). kInvalidFrame = machine truly full.
  mem::FrameId alloc_user_frame(ThreadCtx& t, vm::Vpn vpn, topo::NodeId target);

  // --- memory tiering internals (src/kern/tiers.cpp) ----------------------------
  /// Node `n` is at/over its tier high watermark (tiering admission check).
  bool tier_pressured(topo::NodeId n) const;
  /// Best faster-tier destination for a hint-confirmed hot page on
  /// `page_node` accessed from `local`: strictly-faster tiers only, nearest
  /// to `local` first. Returns `page_node` when no faster tier can take it
  /// (promotion is skipped, plain numab targeting applies).
  topo::NodeId tier_promote_target(topo::NodeId page_node, topo::NodeId local) const;
  /// Nearest strictly-slower-tier node with headroom to absorb demotions
  /// from `from`; kInvalidNode when no lower tier has room.
  topo::NodeId tier_demote_target(topo::NodeId from) const;
  /// Demote one batch of `p`'s pages off `node` down-tier via kmigrated.
  /// `require_idle` restricts victims to scan-confirmed cold pages; the
  /// direct-reclaim path passes false to take any eligible page. Returns
  /// pages submitted.
  std::uint64_t tier_demote(ThreadCtx& t, Process& p, topo::NodeId node,
                            bool require_idle, sim::CostKind kind);
  /// Scan-clock hook: walk fast nodes over their high watermark and kick a
  /// cold-page demotion pass for each (kswapd-style, but driven off the
  /// numab scan window so the model stays single-clocked).
  void tier_demote_check(ThreadCtx& t, Process& p);
  /// MPOL_PREFERRED_MANY placement: best node of `mask` ranked by (tier,
  /// distance from `local`, id) that still has admission headroom; falls
  /// back to the best-ranked member when all are pressured.
  topo::NodeId preferred_many_target(topo::NodeMask mask, topo::NodeId local) const;

  /// One all-core TLB-shootdown IPI round that flushes `pages` migrated
  /// pages, or, with 0, the whole TLB: every flush the kernel makes is one
  /// call. A round the injector drops waits out the acknowledgement timeout
  /// and is re-sent (kern.shootdown_retries, a shootdown-retry tracepoint on
  /// `t`). Counts kern.tlb_shootdowns, samples kern.shootdown_rounds and
  /// returns the cost, which the caller bills or folds into a hold.
  sim::Time shootdown_round(const ThreadCtx& t, std::uint64_t pages = 0);

  /// The one page-migration pipeline: every page move in the kernel goes
  /// through here. Moves the present page `vpn` to `target` as `how` says.
  /// On failure the original frame stays mapped. Also the instrumentation
  /// point: one "migrate-page" span and one kern.migrate_page_ns sample (the
  /// time billed for the page) per call.
  MigrateResult migrate_page(const PageMover& how, Process& p, vm::Pte& pte,
                             vm::Vpn vpn, topo::NodeId target) {
    // Inline early-out: with no registry and no sink attached (every
    // untraced run) the per-page move skips the instrumentation frame.
    if (h_migrate_page_ == nullptr && sinks_.empty())
      return do_migrate_page(how, p, pte, vpn, target);
    return migrate_page_traced(how, p, pte, vpn, target);
  }
  MigrateResult migrate_page_traced(const PageMover& how, Process& p,
                                    vm::Pte& pte, vm::Vpn vpn,
                                    topo::NodeId target);
  /// The pipeline's steps: the transactional engine first when selected and
  /// eligible, degrading per page to stop-and-copy (or deferring); then
  /// destination alloc on exactly `target` with one direct-demotion retry on
  /// tiered machines, the control charge, the copy with injected retries,
  /// backoff and rollback, and commit_page().
  MigrateResult do_migrate_page(const PageMover& how, Process& p, vm::Pte& pte,
                                vm::Vpn vpn, topo::NodeId target);

  /// The commit step every engine ends in: copy the page's bytes into `nf`
  /// (a frame on node `to`), free the old frame, map the PTE to `nf`, move
  /// the page between PlacementCounts rows and retire cached soft-TLB
  /// descriptors (the page changed nodes under them). Charges nothing; PTE
  /// flag bits stay the caller's.
  void commit_page(Process& p, vm::Pte& pte, vm::Vpn vpn, mem::FrameId nf,
                   topo::NodeId to) {
    if (std::byte* dst = phys_.data(nf)) {
      if (const std::byte* src = phys_.data(pte.frame))
        std::memcpy(dst, src, mem::kPageSize);
    }
    const topo::NodeId from = pte.node();
    phys_.free(pte.frame);
    pte.map(nf, to);
    p.placement.move(vpn, from, to);
    stlb_invalidate(p);  // migrate site: the page changed nodes under any descriptor
  }

  /// Terminal outcome of one transactional migration attempt. kDegraded
  /// means the shadow frame was released and the page is untouched: the
  /// caller must stop-and-copy it, or defer it (numab promotion).
  enum class TxnResult : std::uint8_t { kCommitted, kDegraded };

  /// Drive one TxnMigrator for the page on node `from` to a terminal state,
  /// wrapped in a "txn-migrate" span; a degraded transaction is counted and
  /// traced here. Defined in txn_migrate.cpp.
  TxnResult do_migrate_page_txn(ThreadCtx& t, Process& p, vm::Vpn vpn,
                                topo::NodeId from, topo::NodeId target,
                                sim::CostKind control_kind,
                                sim::CostKind copy_kind);

  /// Should this page go through the transactional engine? (Mode selected
  /// AND the page is an ordinary mapped base page — replicas and huge
  /// blocks keep their existing paths.)
  bool txn_eligible(const vm::Pte& pte) const {
    return cfg_.migration_mode == MigrationMode::kTransactional &&
           !(pte.flags & (vm::Pte::kReplica | vm::Pte::kHuge));
  }

  /// The "sys_*" span of an instrumented syscall: takes t.clock when the
  /// syscall body starts and emits the span when its scope exits, so early
  /// returns stay inside the timing. A body left by an exception emits no
  /// span, and a sink's exception propagates as from any emit.
  class SyscallSpan {
   public:
    SyscallSpan(Kernel& k, const ThreadCtx& t, std::string_view name)
        : k_(k), t_(t), name_(name), begin_(t.clock) {}
    ~SyscallSpan() noexcept(false) {
      if (std::uncaught_exceptions() == unwinding_)
        k_.emit_span(t_, name_, begin_, "kern");
    }
    SyscallSpan(const SyscallSpan&) = delete;
    SyscallSpan& operator=(const SyscallSpan&) = delete;

   private:
    Kernel& k_;
    const ThreadCtx& t_;
    std::string_view name_;
    sim::Time begin_;
    int unwinding_ = std::uncaught_exceptions();
  };

  /// Stop-and-copy serialized per-page shares of one family of migration
  /// batches, under each lock model.
  struct SerialShare {
    sim::Time coarse;
    sim::Time range;
  };

  /// The one batch tail every synchronous migration batch ends with: charge
  /// the copies deferred into `copies`, then serialize the batch's `pages`
  /// moves begun at `entry` under the lock model. kCoarse
  /// reserves pages*per_page on the process migration pipeline (the
  /// cross-thread critical sections). kRange instead holds the range locks
  /// covering [lo, hi) exclusively for that work plus ONE coalesced
  /// TLB-shootdown round (instead of the per-page shootdowns baked into the
  /// coarse constants), so disjoint ranges never queue on each other. The
  /// per-page share is `share`, except that a transactional engine only
  /// contends on its commit flips (copies run outside the critical
  /// section) and takes the far smaller txn commit share. The thread clock
  /// is extended only when the serialization is backed up; a single
  /// migrating thread never is.
  void migration_batch_tail(ThreadCtx& t, Process& p, CopyBatch& copies,
                            vm::Vaddr lo, vm::Vaddr hi, sim::Time entry,
                            std::uint64_t pages, MigrateEngine engine,
                            SerialShare share) {
    // Inline early-out: most accesses migrate nothing, and this runs once
    // per access/syscall on the hot path.
    if (copies.runs.empty() && pages == 0) return;
    do_migration_batch_tail(t, p, copies, lo, hi, entry, pages, engine, share);
  }
  void do_migration_batch_tail(ThreadCtx& t, Process& p, CopyBatch& copies,
                               vm::Vaddr lo, vm::Vaddr hi, sim::Time entry,
                               std::uint64_t pages, MigrateEngine engine,
                               SerialShare share);

  /// Reserve the range locks of every VMA overlapping [lo, hi) for `hold`
  /// starting no earlier than `start`. Returns the combined slot (start =
  /// earliest grant, finish = latest). Does not touch the thread clock.
  sim::Slot range_lock_reserve(ThreadCtx& t, Process& p, vm::Vaddr lo,
                               vm::Vaddr hi, sim::Time start, sim::Time hold,
                               bool exclusive);

  /// kmigrated batch execution: validate-free walk of one range, performing
  /// the page moves with all time charged to `node`'s daemon timeline
  /// starting at `submit`. Returns pages queued. `engine` is kConfigured or
  /// kDeferOnDegrade (numab promotion).
  std::uint64_t submit_kmigrated_batch(
      ThreadCtx& t, Process& p, vm::Vaddr addr, std::uint64_t len,
      topo::NodeId node, sim::Time submit,
      MigrateEngine engine = MigrateEngine::kConfigured);

  // --- automatic NUMA balancing internals (src/kern/numab.cpp) ------------------
  /// Scan clock, checked at the top of access()/access_strided() — the
  /// simulated analogue of task_numa_work running from task_work. One branch
  /// when balancing is off.
  void numab_tick(ThreadCtx& t, Process& p);
  /// One scan window: tag up to scan_size_pages present PTEs (sliding
  /// cursor over the VMAs) so their next access hint-faults.
  void numab_scan(ThreadCtx& t, Process& p);
  /// NUMA hint fault: record fault stats, rearm the PTE, and queue the page
  /// for promotion when the two-reference check confirms it.
  void numab_hint_fault(ThreadCtx& t, Process& p, const vm::Vma& vma,
                        vm::Pte& pte, vm::Vpn vpn);
  /// Hand the promotions confirmed during the current access to the
  /// kmigrated daemons, coalesced into contiguous same-target batches.
  void numab_flush_promotions(ThreadCtx& t, Process& p);

  void deliver_sigsegv(ThreadCtx& t, Process& p, const SigInfo& info,
                       AccessResult& res);

  /// Soft-TLB invalidation: retire every cached extent descriptor of `p` by
  /// advancing its mapping generation. Called from every site that narrows a
  /// mapping (unmap, protection/flag surgery, migration commits, numab
  /// tagging, txn arming, policy changes). Over-calling is always safe —
  /// the cost is extra stlb misses, never wrong simulation.
  void stlb_invalidate(Process& p) {
    ++p.mapping_gen;
    ++kstats_.stlb_invalidations;
  }

  /// mm tracepoint: an instant event named after the legacy EventType. The
  /// hot-path cost with no sink attached is this one branch.
  void trace(const ThreadCtx& t, EventType type, vm::Vpn vpn, std::uint64_t pages,
             topo::NodeId from = topo::kInvalidNode,
             topo::NodeId to = topo::kInvalidNode) {
    if (!sinks_.empty()) trace_slow(t, type, vpn, pages, from, to);
  }
  void trace_slow(const ThreadCtx& t, EventType type, vm::Vpn vpn,
                  std::uint64_t pages, topo::NodeId from, topo::NodeId to);

  /// The one trace-event builder: an instant at `ts`, or a span [ts,
  /// ts+dur], on `t`'s timeline. Callers chain add_arg and pass the result
  /// to emit().
  static obs::TraceEvent instant_event(const ThreadCtx& t, std::string_view name,
                                       sim::Time ts, std::string_view cat = "kern") {
    return {.kind = obs::TraceEvent::Kind::kInstant, .ts = ts, .pid = t.pid,
            .tid = t.tid, .cat = cat, .name = name, .args = {}};
  }
  static obs::TraceEvent span_event(const ThreadCtx& t, std::string_view name,
                                    sim::Time ts, sim::Time dur,
                                    std::string_view cat = "kern") {
    return {.kind = obs::TraceEvent::Kind::kSpan, .ts = ts, .dur = dur,
            .pid = t.pid, .tid = t.tid, .cat = cat, .name = name, .args = {}};
  }

  /// Fan an event out to every sink.
  void emit(const obs::TraceEvent& e) {
    for (obs::TraceSink* s : sinks_) s->record(e);
  }

  /// Block until `until` (a no-op once past it): the wait is kLockWait and
  /// one kern.lock_wait_ns sample (host-side only).
  void wait_until(ThreadCtx& t, sim::Time until) {
    if (until <= t.clock) return;
    t.stats.add(sim::CostKind::kLockWait, until - t.clock);
    if (h_lock_wait_ != nullptr) h_lock_wait_->record(until - t.clock);
    t.clock = until;
  }

  /// Occupy a granted lock slot: wait for its start, then hold it as `kind`
  /// until its finish.
  void take_slot(ThreadCtx& t, const sim::Slot& slot, sim::CostKind kind) {
    wait_until(t, slot.start);
    t.stats.add(kind, slot.finish - slot.start);
    t.clock = slot.finish;
  }

  /// Release the frames of every present page in [addr, addr+len): its
  /// replicas, its PlacementCounts entry and its home frame; the PTE is
  /// zeroed. Returns the pages released. Charges nothing.
  std::uint64_t release_frames(Process& p, vm::Vaddr addr, std::uint64_t len);

  KernelConfig cfg_;  // owns the topology; declared first so hw_/phys_ may
                      // reference into it
  const topo::Topology& topo_{cfg_.topology};
  CostModel& cost_{cfg_.cost};
  HwState hw_;
  mem::PhysMem phys_;
  Kmigrated kmigrated_;
  std::vector<obs::TraceSink*> sinks_;
  obs::Registry* metrics_ = nullptr;
  // Cached histogram slots of the attached registry (null = detached), one
  // per NUMASIM_KERNEL_HISTOGRAMS row.
#define NUMASIM_HISTOGRAM_MEMBER(member, name) obs::Histogram* member = nullptr;
  NUMASIM_KERNEL_HISTOGRAMS(NUMASIM_HISTOGRAM_MEMBER)
#undef NUMASIM_HISTOGRAM_MEMBER
  FaultInjector* injector_ = nullptr;
  std::vector<std::unique_ptr<Process>> procs_;
  KernelStats kstats_;
  // Latest simulated instant any thread has shown the kernel; the
  // queue-depth gauge evaluates kmigrated in-flight batches against it.
  sim::Time kmig_now_ = 0;
};

}  // namespace numasim::kern
