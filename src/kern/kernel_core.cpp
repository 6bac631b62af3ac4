// Kernel core: process management, the MMU emulation (access / faults),
// page population and migration primitives, and timing-free inspection.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <sstream>

#include "kern/kernel.hpp"

namespace numasim::kern {

namespace {
constexpr unsigned kMaxFaultRetries = 8;
}

Kernel::Kernel(KernelConfig cfg)
    : cfg_(std::move(cfg)),
      hw_(cfg_.topology),
      phys_(cfg_.topology, cfg_.backing, cfg_.max_frames_per_node),
      kmigrated_(cfg_.topology.num_nodes()) {}

Kernel::~Kernel() {
  // Async kmigrated batches still in flight die with the kernel; account
  // them before detaching so an attached registry folds the count into
  // "kern.kmigrated.dropped" instead of losing it silently.
  kstats_.kmigrated_dropped_at_teardown += kmigrated_.total_inflight(kmig_now_);
  set_metrics(nullptr);
}

void Kernel::add_trace_sink(obs::TraceSink* sink) {
  if (sink == nullptr) return;
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end())
    sinks_.push_back(sink);
}

void Kernel::remove_trace_sink(obs::TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

void Kernel::set_metrics(obs::Registry* reg) {
  if (metrics_ != nullptr && metrics_ != reg) {
    // Fold our bound KernelStats values into the registry's own counters so
    // the totals survive this kernel; drop the gauges (they capture `this`).
    metrics_->retire("kern.");
    metrics_->retire("mem.");
  }
  metrics_ = reg;
#define NUMASIM_RESET_HISTOGRAM(member, name) member = nullptr;
  NUMASIM_KERNEL_HISTOGRAMS(NUMASIM_RESET_HISTOGRAM)
#undef NUMASIM_RESET_HISTOGRAM
  if (reg == nullptr) return;

#define NUMASIM_BIND_COUNTER(field, name) reg->bind_counter(name, &kstats_.field);
  NUMASIM_KERNEL_COUNTERS(NUMASIM_BIND_COUNTER)
#undef NUMASIM_BIND_COUNTER
  reg->bind_gauge("kern.tier.fast_occupancy", [this] { return fast_occupancy_pct(); });

  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    reg->bind_gauge("mem.used_frames.node" + std::to_string(n), [this, n] {
      return static_cast<std::int64_t>(phys_.used_frames(n));
    });
    reg->bind_gauge("kern.kmigrated.queue_depth.node" + std::to_string(n),
                    [this, n] {
                      return static_cast<std::int64_t>(
                          kmigrated_.queue_depth(n, kmig_now_));
                    });
  }

#define NUMASIM_FIND_HISTOGRAM(member, name) member = &reg->histogram(name);
  NUMASIM_KERNEL_HISTOGRAMS(NUMASIM_FIND_HISTOGRAM)
#undef NUMASIM_FIND_HISTOGRAM
}

void Kernel::trace_slow(const ThreadCtx& t, EventType type, vm::Vpn vpn,
                        std::uint64_t pages, topo::NodeId from, topo::NodeId to) {
  auto node_arg = [](topo::NodeId n) {
    return n == topo::kInvalidNode ? -1 : static_cast<std::int64_t>(n);
  };
  emit(instant_event(t, event_type_name(type), t.clock)
           .add_arg("vpn", static_cast<std::int64_t>(vpn))
           .add_arg("pages", static_cast<std::int64_t>(pages))
           .add_arg("from", node_arg(from))
           .add_arg("to", node_arg(to)));
}

void Kernel::emit_instant(const ThreadCtx& t, std::string_view name,
                          std::string_view cat) {
  if (sinks_.empty()) return;
  emit(instant_event(t, name, t.clock, cat));
}

void Kernel::emit_span(const ThreadCtx& t, std::string_view name, sim::Time begin,
                       std::string_view cat) {
  if (sinks_.empty()) return;
  emit(span_event(t, name, begin, t.clock >= begin ? t.clock - begin : 0, cat));
}

Pid Kernel::create_process(std::string name) {
  auto p = std::make_unique<Process>();
  p->pid = static_cast<Pid>(procs_.size());
  p->name = std::move(name);
  p->replicas.set_num_nodes(topo_.num_nodes());
  p->placement.init(topo_.num_nodes());
  procs_.push_back(std::move(p));
  return procs_.back()->pid;
}

Kernel::Process& Kernel::proc(Pid pid) {
  if (pid >= procs_.size()) throw std::out_of_range{"Kernel: bad pid"};
  return *procs_[pid];
}

const Kernel::Process& Kernel::proc(Pid pid) const {
  if (pid >= procs_.size()) throw std::out_of_range{"Kernel: bad pid"};
  return *procs_[pid];
}

void Kernel::set_sigsegv_handler(Pid pid, SegvHandler handler) {
  proc(pid).segv = std::move(handler);
}

void Kernel::set_fault_injector(FaultInjector* inj) {
  // Plan specs are untrusted (fuzzer/CLI strings): a cap naming a node this
  // topology doesn't have is ignored — there is nothing to exhaust.
  const auto valid = [this](const FaultPlan::NodeCap& c) {
    return c.node < topo_.num_nodes();
  };
  if (injector_ != nullptr && inj == nullptr) {
    // Detach: restore the capacities the old plan's caps may have clamped.
    for (const FaultPlan::NodeCap& c : injector_->node_caps())
      if (valid(c)) phys_.set_node_capacity(c.node, ~std::uint64_t{0});
  }
  injector_ = inj;
  if (injector_ != nullptr) {
    for (const FaultPlan::NodeCap& c : injector_->node_caps())
      if (valid(c)) phys_.set_node_capacity(c.node, c.frames);
  }
}

Kernel::CopyOutcome Kernel::copy_outcome() {
  CopyOutcome o;
  if (injector_ == nullptr) return o;
  while (true) {
    switch (injector_->copy_verdict()) {
      case CopyVerdict::kOk:
        return o;
      case CopyVerdict::kPermanent:
        o.ok = false;
        return o;
      case CopyVerdict::kTransient:
        if (o.retries >= cost_.copy_retry_max) {  // retry budget exhausted
          o.ok = false;
          return o;
        }
        ++o.retries;
        break;
    }
  }
}

mem::FrameId Kernel::alloc_migration_frame(topo::NodeId node) {
  if (injector_ != nullptr && injector_->fail_alloc(node))
    return mem::kInvalidFrame;
  // Strict __GFP_THISNODE, no reserves: migration targets fail rather than
  // land on the wrong node (Linux's new_page_node()).
  return phys_.alloc_on(node);
}

mem::FrameId Kernel::alloc_user_frame(ThreadCtx& t, vm::Vpn vpn,
                                      topo::NodeId target) {
  if (injector_ != nullptr && injector_->fail_alloc(target)) {
    // A user fault does not see ENOMEM: it direct-reclaims (charged as a
    // stall) and then succeeds from the zonelist or the reserve pool.
    charge(t, cost_.reclaim_stall, sim::CostKind::kAllocZero);
    ++kstats_.alloc_stalls;
    trace(t, EventType::kAllocStall, vpn, 1, topo::kInvalidNode, target);
  }
  const mem::FrameId f = phys_.alloc_near(target);
  if (f != mem::kInvalidFrame) return f;
  return phys_.alloc_near(target, /*use_reserve=*/true);
}

void Kernel::set_task_policy(Pid pid, const vm::MemPolicy& pol) {
  Process& p = proc(pid);
  p.task_policy = pol;
  stlb_invalidate(p);  // policy-change site (uniform with sys_set_mempolicy)
}

void Kernel::populate_page(ThreadCtx& t, Process& p, const vm::Vma& vma,
                           vm::Vpn vpn, vm::Pte& pte) {
  const mem::FrameId frame =
      alloc_user_frame(t, vpn, fault_target(t, p, vma, vpn));
  if (frame == mem::kInvalidFrame) throw std::runtime_error{"simulated OOM"};
  const topo::NodeId node = phys_.node_of(frame);
  zero_fill(t, node, mem::kPageSize);
  if (std::byte* d = phys_.data(frame)) std::memset(d, 0, mem::kPageSize);

  pte.flags = vm::Pte::kPresent | vm::Pte::kAccessed;
  pte.map(frame, node);
  pte.restore_hw(vma.prot);
  p.placement.inc(vpn, node);
  ++kstats_.minor_faults;
  trace(t, EventType::kMinorFault, vpn, 1, topo::kInvalidNode, node);
}

sim::Slot Kernel::range_lock_reserve(ThreadCtx& t, Process& p, vm::Vaddr lo,
                                     vm::Vaddr hi, sim::Time start,
                                     sim::Time hold, bool exclusive) {
  // Two-phase over every VMA overlapping [lo, hi): each VMA's lock is
  // reserved independently; the work runs once the *last* grant arrives and
  // the combined hold ends at the latest finish.
  sim::Slot out{start, start + hold};
  vm::Vaddr cur = vm::page_align_down(lo);
  const vm::Vaddr end = vm::page_align_up(hi);
  while (cur < end) {
    const vm::Vma* vma = p.as.find(cur);
    if (vma == nullptr) {  // unmapped hole: skip page by page
      cur += mem::kPageSize;
      continue;
    }
    const vm::Vaddr seg_end = std::min(end, vma->end);
    const sim::Slot s = p.vma_locks[vma->lock_id].reserve(
        start, hold, vm::vpn_of(cur), vm::vpn_of(seg_end - 1) + 1, exclusive,
        t.core, cost_.lock_bounce);
    out.start = std::max(out.start, s.start);
    out.finish = std::max(out.finish, s.finish);
    cur = seg_end;
  }
  return out;
}

sim::Time Kernel::shootdown_round(const ThreadCtx& t, std::uint64_t pages) {
  // tlb_shootdown_round(cores, 0) is tlb_shootdown(cores): a full flush is
  // a round over no pages.
  const unsigned cores = topo_.num_cores();
  sim::Time c = cost_.tlb_shootdown_round(cores, pages);
  std::uint64_t rounds = 1;
  if (injector_ != nullptr && injector_->drop_shootdown()) {
    // One IPI was lost: wait out the acknowledgement timeout, re-broadcast.
    c += cost_.tlb_shootdown_resend_wait + cost_.tlb_shootdown(cores);
    ++kstats_.shootdown_retries;
    ++rounds;
    trace(t, EventType::kShootdownRetry, 0, 1);
  }
  ++kstats_.tlb_shootdowns;
  if (h_shootdown_rounds_ != nullptr) h_shootdown_rounds_->record(rounds);
  return c;
}

void Kernel::do_migration_batch_tail(ThreadCtx& t, Process& p, CopyBatch& copies,
                                     vm::Vaddr lo, vm::Vaddr hi, sim::Time entry,
                                     std::uint64_t pages, MigrateEngine engine,
                                     SerialShare share) {
  flush_copy_batch(t, copies);
  if (pages == 0) return;
  const bool txn = engine != MigrateEngine::kStopAndCopy &&
                   cfg_.migration_mode == MigrationMode::kTransactional;
  sim::Slot slot;
  if (cfg_.lock_model == LockModel::kRange) {
    // The run's serialized work plus one coalesced shootdown round, held on
    // the range locks only — disjoint runs never see each other.
    const sim::Time per_page =
        txn ? cost_.txn_range_commit_serial_per_page : share.range;
    const sim::Time hold = pages * per_page + shootdown_round(t, pages);
    slot = range_lock_reserve(t, p, lo, hi, entry, hold, /*exclusive=*/true);
  } else {
    const sim::Time per_page = txn ? cost_.txn_commit_serial_per_page : share.coarse;
    slot = p.migration_pipeline.reserve(entry, pages * per_page);
  }
  wait_until(t, slot.finish);
}

void Kernel::flush_copy_batch(ThreadCtx& t, CopyBatch& batch) {
  // Adjacent runs between the same two nodes take one copy reservation, as
  // one run of a single kind would; its time is split among their kinds by
  // bytes, so the kinds change only the labels, never the total.
  const std::vector<CopyBatch::Run>& runs = batch.runs;
  for (std::size_t i = 0, end = 0; i < runs.size(); i = end) {
    std::uint64_t bytes = 0;
    for (end = i; end < runs.size() && runs[end].from == runs[i].from &&
                  runs[end].to == runs[i].to;
         ++end)
      bytes += runs[end].bytes;
    const sim::Slot c = hw_.copy(t.clock, runs[i].from, runs[i].to, bytes,
                                 cost_.kernel_copy_bytes_per_us);
    const sim::Time dur = c.finish - t.clock;
    std::uint64_t done = 0;
    sim::Time billed = 0;
    for (std::size_t j = i; j < end; ++j) {
      done += runs[j].bytes;
      const sim::Time upto =
          j + 1 == end ? dur
                       : static_cast<sim::Time>(static_cast<double>(dur) *
                                                static_cast<double>(done) /
                                                static_cast<double>(bytes));
      t.stats.add(runs[j].kind, upto - billed);
      billed = upto;
    }
    t.clock = c.finish;
  }
  batch.runs.clear();
}

Kernel::MigrateResult Kernel::migrate_page_traced(const PageMover& how,
                                                  Process& p, vm::Pte& pte,
                                                  vm::Vpn vpn,
                                                  topo::NodeId target) {
  const ThreadCtx& t = how.bill.t;
  const sim::Time begin = t.clock;
  const sim::Time billed = how.bill.billed();
  const topo::NodeId from = pte.node();
  const MigrateResult r = do_migrate_page(how, p, pte, vpn, target);
  // Per-page pipeline latency: the time billed for this page. Deferred
  // copies land in the batch tail, so those samples cover control only.
  if (h_migrate_page_ != nullptr)
    h_migrate_page_->record(how.bill.billed() - billed);
  if (!sinks_.empty()) {
    emit(span_event(t, "migrate-page", begin, how.bill.billed() - billed)
             .add_arg("vpn", static_cast<std::int64_t>(vpn))
             .add_arg("from", static_cast<std::int64_t>(from))
             .add_arg("to", static_cast<std::int64_t>(target))
             .add_arg("ok", r == MigrateResult::kOk ? 1 : 0));
  }
  return r;
}

Kernel::MigrateResult Kernel::do_migrate_page(const PageMover& how, Process& p,
                                              vm::Pte& pte, vm::Vpn vpn,
                                              topo::NodeId target) {
  const PageBill& bill = how.bill;
  ThreadCtx& t = bill.t;
  const topo::NodeId from = pte.node();
  if (how.engine != MigrateEngine::kStopAndCopy && txn_eligible(pte)) {
    // The transactional engine bills a ThreadCtx, so daemons run it on
    // their scratch context's clock. A degraded transaction left the page
    // untouched: it falls through to the stop-and-copy steps below (the
    // degradation ladder) or stays put.
    assert(bill.service == nullptr);
    if (do_migrate_page_txn(t, p, vpn, from, target, how.control_kind,
                            how.copy_kind) == TxnResult::kCommitted)
      return MigrateResult::kOk;
    if (how.engine == MigrateEngine::kDeferOnDegrade)
      return MigrateResult::kDeferred;
  }
  auto charge_control = [&](sim::Time dur) {
    if (bill.service != nullptr) {
      *bill.service += dur;
    } else {
      charge(t, dur, how.control_kind);
    }
  };

  // Isolate→alloc: the destination frame must come from the target node
  // (strict __GFP_THISNODE), so a full node degrades this page to ENOMEM
  // before any copy bandwidth is spent.
  mem::FrameId new_frame = alloc_migration_frame(target);
  if (new_frame == mem::kInvalidFrame && cfg_.tiers.enabled &&
      cfg_.tiers.demotion) {
    // Direct demotion (tiering): push cold — or, failing that, any eligible —
    // pages of `target` down-tier to make room, then retry once. The chain is
    // monotonic down the tier order, so it terminates at the slowest tier.
    if (tier_demote(t, p, target, /*require_idle=*/false, how.control_kind) > 0) {
      charge_control(cost_.demote_direct_stall);
      new_frame = alloc_migration_frame(target);
    }
  }
  if (new_frame == mem::kInvalidFrame) {
    ++kstats_.migrations_failed;
    trace(t, EventType::kMigrateFail, vpn, 1, from, target);
    return MigrateResult::kNoMem;
  }

  // Control path: isolation, PTE rewrite, local flush. The cross-thread
  // serialization is applied per batch by migration_batch_tail().
  charge_control(how.control_cost);

  // One copy attempt: chained on the daemon's copy cursor, deferred into
  // the batch, or charged inline on the payer's clock.
  auto copy_once = [&] {
    if (bill.copy_cursor != nullptr) {
      *bill.copy_cursor = hw_.copy(*bill.copy_cursor, from, target, mem::kPageSize,
                                   cost_.kernel_copy_bytes_per_us)
                              .finish;
    } else if (bill.copies != nullptr) {
      bill.copies->add(from, target, mem::kPageSize, how.copy_kind);
    } else {
      charge_copy(t, from, target, mem::kPageSize, cost_.kernel_copy_bytes_per_us,
                  how.copy_kind);
    }
  };

  // Copy, retrying transient failures with exponential backoff. A failed
  // attempt still consumed the copy engine, so it is charged too.
  const CopyOutcome oc = copy_outcome();
  for (unsigned r = 0; r < oc.retries; ++r) {
    copy_once();
    charge_control(cost_.copy_backoff(r));
    ++kstats_.migration_retries;
    trace(t, EventType::kMigrateRetry, vpn, 1, from, target);
  }
  copy_once();  // the final attempt, whether it succeeds or not
  if (!oc.ok) {
    // Abort + rollback: release the destination frame; the original frame
    // was never unmapped, so the page stays resident and valid.
    phys_.free(new_frame);
    ++kstats_.migrations_failed;
    trace(t, EventType::kMigrateFail, vpn, 1, from, target);
    return MigrateResult::kCopyFail;
  }
  commit_page(p, pte, vpn, new_frame, target);
  return MigrateResult::kOk;
}

void Kernel::populate_huge_block(ThreadCtx& t, Process& p, const vm::Vma& vma,
                                 vm::Vpn vpn) {
  constexpr std::uint64_t kHugePages = (2ull << 20) >> mem::kPageShift;
  const vm::Vpn block = vpn & ~(kHugePages - 1);
  const topo::NodeId target = fault_target(t, p, vma, block);
  // One fault maps the whole block: one PTE-level update, one 2 MiB
  // zero-fill, one allocation episode (the huge frame).
  zero_fill(t, target, 2ull << 20);

  for (vm::Vpn v = block; v < block + kHugePages; ++v) {
    vm::Pte& pte = p.as.page_table().ensure(v);
    if (pte.present()) continue;
    const mem::FrameId f = alloc_user_frame(t, v, target);
    if (f == mem::kInvalidFrame) throw std::runtime_error{"simulated OOM (huge)"};
    if (std::byte* d = phys_.data(f)) std::memset(d, 0, mem::kPageSize);
    const topo::NodeId node = phys_.node_of(f);
    pte.flags = vm::Pte::kPresent | vm::Pte::kAccessed | vm::Pte::kHuge;
    pte.map(f, node);
    pte.restore_hw(vma.prot);
    p.placement.inc(v, node);
  }
  ++kstats_.minor_faults;
}

topo::NodeId Kernel::resolve_replica(ThreadCtx& t, Process& p, vm::Pte& pte,
                                     vm::Vpn vpn, topo::NodeId reader,
                                     CopyBatch& copies) {
  const topo::NodeId home = pte.node();
  if (reader == home) return home;
  const mem::FrameId existing = p.replicas.replica_on(vpn, reader);
  if (existing != mem::kInvalidFrame) return reader;

  // First read from this node: create the local replica (alloc + copy from
  // the home page; cheap bookkeeping, like a COW fault without the write).
  const mem::FrameId f = phys_.alloc_on(reader);
  if (f == mem::kInvalidFrame) return home;  // node full: keep reading remote
  charge(t, cost_.page_alloc + cost_.replica_control, sim::CostKind::kReplicaControl);
  copies.add(home, reader, mem::kPageSize, sim::CostKind::kReplicaCopy);
  if (std::byte* dst = phys_.data(f)) {
    if (const std::byte* src = phys_.data(pte.frame))
      std::memcpy(dst, src, mem::kPageSize);
  }
  p.replicas.add(vpn, reader, f);
  ++kstats_.replica_pages;
  trace(t, EventType::kReplicaCreate, vpn, 1, home, reader);
  return reader;
}

void Kernel::collapse_replicas(ThreadCtx& t, Process& p, vm::Pte& pte, vm::Vpn vpn,
                               topo::NodeId writer) {
  const std::vector<mem::FrameId> frames = p.replicas.take(vpn);
  for (mem::FrameId f : frames) {
    charge(t, cost_.page_free + cost_.replica_control, sim::CostKind::kReplicaControl);
    phys_.free(f);
  }
  // Home page moves to the writer if it is elsewhere (write locality) —
  // best-effort: under pressure the collapse still succeeds, just without
  // the locality gain.
  if (pte.node() != writer) {
    migrate_page({{t}, MigrateEngine::kConfigured, cost_.nt_fault_control,
                  sim::CostKind::kReplicaControl, sim::CostKind::kReplicaCopy},
                 p, pte, vpn, writer);
  }
  charge(t, shootdown_round(t), sim::CostKind::kTlbShootdown);
  ++kstats_.replica_collapses;
  trace(t, EventType::kReplicaCollapse, vpn, frames.size(), topo::kInvalidNode, writer);
  pte.clear(vm::Pte::kReplica);
  pte.set(vm::Pte::kHwWrite | vm::Pte::kHwRead);
}

void Kernel::deliver_sigsegv(ThreadCtx& t, Process& p, const SigInfo& info,
                             AccessResult& res) {
  if (!p.segv || t.signal_depth > 0) throw SegfaultError{info.fault_addr};
  if (injector_ != nullptr && injector_->delay_signal()) {
    // The signal is queued behind a context switch: delivery is late but
    // never lost (the faulting access stays blocked, so no re-fault storm).
    charge(t, cost_.signal_redelivery_delay, sim::CostKind::kSignalDelivery);
    ++kstats_.signals_delayed;
    trace(t, EventType::kSignalDelay, vm::vpn_of(info.fault_addr), 1);
  }
  charge(t, cost_.signal_delivery, sim::CostKind::kSignalDelivery);
  ++kstats_.signals_delivered;
  ++res.sigsegv_delivered;
  trace(t, EventType::kSigsegv, vm::vpn_of(info.fault_addr), 1);
  ++t.signal_depth;
  const sim::Time handler_begin = t.clock;
  p.segv(t, info);
  --t.signal_depth;
  emit_span(t, "sigsegv-handler", handler_begin, "kern");
  charge(t, cost_.sigreturn, sim::CostKind::kSignalDelivery);
}

bool Kernel::handle_fault(ThreadCtx& t, Process& p, vm::Vaddr addr, vm::Prot want,
                          AccessResult& res, CopyBatch& copies) {
  const sim::Time begin = t.clock;
  const bool retry = do_handle_fault(t, p, addr, want, res, copies);
  if (h_fault_ != nullptr) h_fault_->record(t.clock - begin);
  if (!sinks_.empty()) {
    emit(span_event(t, "fault", begin, t.clock - begin)
             .add_arg("vpn", static_cast<std::int64_t>(vm::vpn_of(addr))));
  }
  return retry;
}

bool Kernel::do_handle_fault(ThreadCtx& t, Process& p, vm::Vaddr addr,
                             vm::Prot want, AccessResult& res, CopyBatch& copies) {
  charge(t, cost_.pagefault_entry, sim::CostKind::kPageFault);

  vm::Vma* vma = p.as.find(addr);
  if (vma == nullptr || !prot_allows(vma->prot, want)) {
    ++kstats_.protection_faults;
    deliver_sigsegv(t, p, SigInfo{addr, want}, res);
    return true;  // retry: the handler may have repaired the mapping
  }

  vm::Pte& pte = p.as.page_table().ensure(vm::vpn_of(addr));
  if (!pte.present()) {
    if (vma->huge) {
      populate_huge_block(t, p, *vma, vm::vpn_of(addr));
    } else {
      populate_page(t, p, *vma, vm::vpn_of(addr), pte);
    }
    ++res.minor_faults;
    return false;
  }

  if (pte.flags & vm::Pte::kReplica) {
    charge(t, cost_.pte_update, sim::CostKind::kReplicaControl);
    if (prot_allows(want, vm::Prot::kWrite)) {
      collapse_replicas(t, p, pte, vm::vpn_of(addr), topo_.node_of_core(t.core));
    } else {
      // First read after arming: restore the read bit; per-node replicas are
      // materialized lazily by the access fast path.
      resolve_replica(t, p, pte, vm::vpn_of(addr), topo_.node_of_core(t.core), copies);
      pte.set(vm::Pte::kHwRead);
    }
    return false;
  }

  if (pte.flags & vm::Pte::kTxn) {
    // Write fault on a page mid-transaction: drop the protection and let
    // the writer proceed immediately — it never waits for the migration.
    // The writer's access then sets kDirty, and the missing kTxn alone
    // already tells the verify step to loop through the retry path.
    charge(t, cost_.pte_update + cost_.tlb_flush_local, sim::CostKind::kPageFault);
    pte.clear(vm::Pte::kTxn);
    pte.restore_hw(vma->prot);
    return false;
  }

  if (pte.next_touch()) {
    ++kstats_.nexttouch_faults;
    const topo::NodeId local = topo_.node_of_core(t.core);
    if (pte.node() != local) {
      const topo::NodeId was = pte.node();
      if (migrate_page({{t, &copies}, MigrateEngine::kConfigured,
                        cost_.nt_fault_control, sim::CostKind::kNextTouchControl,
                        sim::CostKind::kNextTouchCopy},
                       p, pte, vm::vpn_of(addr), local) == MigrateResult::kOk) {
        ++res.nexttouch_migrations;
        ++kstats_.pages_migrated_nexttouch;
        trace(t, EventType::kNextTouchMigrate, vm::vpn_of(addr), 1, was, local);
      } else {
        // Degraded next-touch: the local node cannot take the page (ENOMEM
        // or copy failure). Map it where it is — the touch must never
        // crash; only the locality optimization is lost.
        ++kstats_.nexttouch_degraded;
        trace(t, EventType::kNextTouchDegraded, vm::vpn_of(addr), 1, was, local);
      }
    } else {
      // Already local: just rearm the permissions.
      charge(t, cost_.pte_update + cost_.tlb_flush_local,
             sim::CostKind::kNextTouchControl);
      ++res.nexttouch_hits_local;
    }
    pte.clear(vm::Pte::kNextTouch);
    pte.set(vm::Pte::kAccessed);
    pte.restore_hw(vma->prot);
    return false;
  }

  if (pte.numa_hint() && cfg_.numa_balancing.enabled) {
    // NUMA hint fault (do_numa_page): the scan clock unmapped this page so
    // we learn who touches it. Records fault stats, rearms the PTE, and may
    // queue a confirmed remote page for promotion.
    numab_hint_fault(t, p, *vma, pte, vm::vpn_of(addr));
    return false;
  }

  // Present, VMA permits, but hardware bits are narrower (e.g. after an
  // mprotect widening): re-derive them from the VMA.
  charge(t, cost_.pte_update + cost_.tlb_flush_local, sim::CostKind::kPageFault);
  pte.restore_hw(vma->prot);
  return false;
}

inline topo::NodeId Kernel::access_page(ThreadCtx& t, Process& p, vm::Pte& pte,
                                        vm::Vpn vpn, bool writing,
                                        topo::NodeId core_node,
                                        CopyBatch& copies) {
  if (writing) {
    pte.set(vm::Pte::kDirty);
  } else if (pte.flags & vm::Pte::kReplica) {
    return resolve_replica(t, p, pte, vpn, core_node, copies);
  }
  return pte.node();
}

template <typename OnPage, typename OnFault>
void Kernel::walk_extent(ThreadCtx& t, Process& p, vm::Vaddr addr, vm::Vaddr end,
                         vm::Prot want, topo::NodeId core_node, AccessResult& res,
                         CopyBatch& copies, OnPage&& on_page, OnFault&& on_fault) {
  vm::PageTable& pt = p.as.page_table();
  const vm::Vpn vpn0 = vm::vpn_of(addr);
  const vm::Vpn vpn_end = vm::vpn_of(end - 1) + 1;
  const bool writing = prot_allows(want, vm::Prot::kWrite);

  // Soft-TLB admission (kern/stlb.hpp): only extents touching at least one
  // page-table chunk's worth of pages are looked up, counted or cached.
  const bool cacheable = cfg_.stlb &&
                         vpn_end - vpn0 >= vm::PageTable::kChunkPages &&
                         vpn_end - vpn0 <= std::numeric_limits<std::uint32_t>::max();

  // Fast path: a current-generation descriptor covering the whole extent
  // proves every page is mapped, same-node, flag-quiet, and (for writes)
  // already dirty — so the walk below would hand exactly `end - addr` bytes
  // of one node to on_page and change nothing. No fault, copy or migration
  // follows, so the callers' tails are no-ops for such an extent.
  if (cacheable) {
    if (const SoftTlb::Entry* e =
            t.stlb.lookup(t.pid, p.mapping_gen, vpn0, vpn_end, want)) {
      ++kstats_.stlb_hits;
      on_page(e->node, end - addr);
      res.pages += vpn_end - vpn0;
      return;
    }
    ++kstats_.stlb_misses;
  }

  // Soft-TLB fill: the walk doubles as the proof. Track whether this extent
  // came out fault-free, single-node, and flag-quiet, and which hardware
  // permissions (plus the dirty bit, for write reuse) held on every page.
  bool stlb_elig = cacheable;
  bool stlb_read_ok = true;
  bool stlb_write_ok = true;
  topo::NodeId stlb_node = topo::kInvalidNode;

  // PTEs are walked by pointer within each 512-entry chunk (arena-backed,
  // address-stable even when a fault grows the table): one find() per
  // chunk/fault instead of one per page. Fault handling and the per-page
  // byte accounting happen in exactly the per-page order.
  vm::Vpn vpn = vpn0;
  while (vpn < vpn_end) {
    vm::Pte* pte = pt.find(vpn);
    unsigned retries = 0;
    while (pte == nullptr || !pte->hw_allows(want)) {
      on_fault();
      stlb_elig = false;  // a faulting extent is not walk-free reusable
      if (++retries > kMaxFaultRetries)
        throw SegfaultError{std::max(addr, vm::addr_of(vpn))};
      handle_fault(t, p, std::max(addr, vm::addr_of(vpn)), want, res, copies);
      pte = pt.find(vpn);
    }
    const vm::Vpn chunk_end =
        std::min(vpn_end, (vpn | (vm::PageTable::kChunkPages - 1)) + 1);
    for (;;) {
      const vm::Vaddr page_start = vm::addr_of(vpn);
      const vm::Vaddr lo = std::max(addr, page_start);
      const vm::Vaddr hi = std::min(end, page_start + mem::kPageSize);
      if (stlb_elig) {
        const std::uint16_t fl = pte->flags;  // pre-mutation flags
        if (fl & vm::Pte::kStlbExcluded) stlb_elig = false;
        stlb_read_ok = stlb_read_ok && (fl & vm::Pte::kHwRead) != 0;
        stlb_write_ok = stlb_write_ok && (fl & vm::Pte::kHwWrite) != 0 &&
                        (writing || (fl & vm::Pte::kDirty) != 0);
      }
      const topo::NodeId node =
          access_page(t, p, *pte, vpn, writing, core_node, copies);
      if (stlb_node == topo::kInvalidNode) {
        stlb_node = node;
      } else if (node != stlb_node) {
        stlb_elig = false;  // extent spans nodes: one-stream replay is wrong
      }
      on_page(node, hi - lo);
      ++res.pages;
      ++vpn;
      if (vpn == chunk_end) break;
      ++pte;
      if (!pte->hw_allows(want)) break;  // back to the fault path
    }
  }
  if (stlb_elig && (stlb_read_ok || stlb_write_ok)) {
    std::uint8_t prot = 0;
    if (stlb_read_ok) prot |= SoftTlb::kReadOk;
    if (stlb_write_ok) prot |= SoftTlb::kWriteOk;
    t.stlb.insert({vpn0, static_cast<std::uint32_t>(vpn_end - vpn0), t.pid,
                   p.mapping_gen, stlb_node, prot});
  }
}

AccessResult Kernel::access(ThreadCtx& t, vm::Vaddr addr, std::uint64_t len,
                            vm::Prot want, double stream_rate_bytes_per_us) {
  AccessResult res;
  if (len == 0) return res;
  Process& p = proc(t.pid);
  const topo::NodeId core_node = topo_.node_of_core(t.core);
  numab_tick(t, p);
  const sim::Time entry = t.clock;
  CopyBatch copies;
  // A range that ends past the user address space, or wraps past 2^64, is
  // walked only up to kUserTop. Like any range it faults at its first
  // unmapped page; with none below kUserTop, it faults at kUserTop.
  const bool in_range = vm::AddressSpace::in_user_range(addr, len);
  const vm::Vaddr end = in_range ? addr + len : vm::AddressSpace::kUserTop;

  // Contiguous same-node runs are charged as one stream, in address order,
  // and the open run is flushed before every fault so fault costs and
  // stream costs interleave on the thread clock exactly as they occur.
  const MemDir dir =
      prot_allows(want, vm::Prot::kWrite) ? MemDir::kWrite : MemDir::kRead;
  topo::NodeId run_node = topo::kInvalidNode;
  std::uint64_t run_bytes = 0;
  auto flush_run = [&] {
    if (run_bytes != 0 && stream_rate_bytes_per_us > 0.0)
      charge_stream(t, run_node, run_bytes, stream_rate_bytes_per_us, dir);
    run_bytes = 0;
  };
  walk_extent(
      t, p, addr, end, want, core_node, res, copies,
      [&](topo::NodeId node, std::uint64_t bytes) {
        if (node != run_node) flush_run();
        run_node = node;
        run_bytes += bytes;
      },
      flush_run);
  flush_run();
  if (!in_range) throw SegfaultError{std::max(addr, vm::AddressSpace::kUserTop)};

  migration_batch_tail(t, p, copies, addr, end, entry, res.nexttouch_migrations,
                       MigrateEngine::kConfigured,
                       {cost_.nt_serial_per_page, cost_.nt_range_serial_per_page});
  if (!p.numab.pending.empty()) numab_flush_promotions(t, p);
  return res;
}

AccessResult Kernel::access_strided(ThreadCtx& t, vm::Vaddr base,
                                    std::uint64_t rows, std::uint64_t row_bytes,
                                    std::uint64_t stride_bytes, vm::Prot want,
                                    double stream_rate_bytes_per_us,
                                    double traffic_scale,
                                    std::vector<std::uint64_t>* bytes_by_node) {
  AccessResult res;
  if (rows == 0 || row_bytes == 0) return res;
  Process& p = proc(t.pid);
  const topo::NodeId core_node = topo_.node_of_core(t.core);
  numab_tick(t, p);
  const sim::Time entry = t.clock;
  CopyBatch copies;

  // Each row's bytes land in per-node buckets that are charged in bulk at
  // the end, so faults need no flush. A row inside one page whose PTE
  // already allows the access is what walk_extent would reduce to: one
  // find and one access_page, no fault and no soft-TLB lookup (one page is
  // below its admission size). Every other row is one extent walk.
  vm::PageTable& pt = p.as.page_table();
  const bool writing = prot_allows(want, vm::Prot::kWrite);
  std::vector<std::uint64_t> bytes_from(topo_.num_nodes(), 0);
  auto to_bucket = [&](topo::NodeId node, std::uint64_t bytes) {
    bytes_from[node] += bytes;
  };
  // Rows [0, rows_in) end at or below kUserTop. Row starts only grow with r,
  // so the first row that does not is the last one touched: as in access(),
  // it is walked up to kUserTop and faults at its first unmapped page, or at
  // max(its start, kUserTop), or at kUserTop when base + r * stride does not
  // fit in 64 bits.
  constexpr vm::Vaddr kTop = vm::AddressSpace::kUserTop;
  std::uint64_t rows_in = 0;
  if (vm::AddressSpace::in_user_range(base, row_bytes)) {
    const std::uint64_t room = kTop - base - row_bytes;
    rows_in = stride_bytes == 0 ? rows : std::min(rows, room / stride_bytes + 1);
  }
  for (std::uint64_t r = 0; r < rows_in; ++r) {
    const vm::Vaddr row_start = base + r * stride_bytes;
    const vm::Vpn vpn = vm::vpn_of(row_start);
    if (vpn == vm::vpn_of(row_start + row_bytes - 1)) {
      vm::Pte* pte = pt.find(vpn);
      if (pte != nullptr && pte->hw_allows(want)) {
        bytes_from[access_page(t, p, *pte, vpn, writing, core_node, copies)] +=
            row_bytes;
        ++res.pages;
        continue;
      }
    }
    walk_extent(t, p, row_start, row_start + row_bytes, want, core_node, res,
                copies, to_bucket, [] {});
  }
  vm::Vaddr fault_at = kTop;
  if (rows_in < rows && (stride_bytes == 0 ||
                         rows_in <= (~std::uint64_t{0} - base) / stride_bytes)) {
    const vm::Vaddr row_start = base + rows_in * stride_bytes;
    if (row_start < kTop)
      walk_extent(t, p, row_start, kTop, want, core_node, res, copies, to_bucket,
                  [] {});
    fault_at = std::max(row_start, kTop);
  }

  if (bytes_by_node != nullptr) *bytes_by_node = bytes_from;
  if (stream_rate_bytes_per_us > 0.0) {
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (bytes_from[n] == 0) continue;
      const auto scaled = static_cast<std::uint64_t>(
          static_cast<double>(bytes_from[n]) * traffic_scale + 0.5);
      charge_stream(t, n, scaled, stream_rate_bytes_per_us,
                    writing ? MemDir::kWrite : MemDir::kRead);
    }
  }
  if (rows_in < rows) throw SegfaultError{fault_at};
  migration_batch_tail(t, p, copies, base,
                       base + (rows - 1) * stride_bytes + row_bytes, entry,
                       res.nexttouch_migrations, MigrateEngine::kConfigured,
                       {cost_.nt_serial_per_page, cost_.nt_range_serial_per_page});
  if (!p.numab.pending.empty()) numab_flush_promotions(t, p);
  return res;
}

int Kernel::read_bytes(ThreadCtx& t, vm::Vaddr addr, std::span<std::byte> out) {
  access(t, addr, out.size(), vm::Prot::kRead, cost_.core_stream_bytes_per_us);
  if (!peek(t.pid, addr, out) && phys_.backing() == mem::Backing::kMaterialized)
    return -kEFAULT;
  return 0;
}

int Kernel::write_bytes(ThreadCtx& t, vm::Vaddr addr, std::span<const std::byte> in) {
  access(t, addr, in.size(), vm::Prot::kWrite, cost_.core_stream_bytes_per_us);
  if (!poke(t.pid, addr, in) && phys_.backing() == mem::Backing::kMaterialized)
    return -kEFAULT;
  return 0;
}

int Kernel::user_memcpy(ThreadCtx& t, vm::Vaddr dst, vm::Vaddr src,
                        std::uint64_t len) {
  if (len == 0) return 0;
  Process& p = proc(t.pid);
  if (!p.as.range_mapped(src, len) || !p.as.range_mapped(dst, len)) return -kEFAULT;

  // Fault both ranges in (no data-plane charge; the copy itself is charged
  // below at the SSE rate between the actual frame locations).
  charge(t, cost_.user_memcpy_base, sim::CostKind::kMemAccess);
  access(t, src, len, vm::Prot::kRead, 0.0);
  access(t, dst, len, vm::Prot::kWrite, 0.0);

  vm::PageTable& pt = p.as.page_table();
  const vm::Vaddr end = src + len;
  vm::Vpn svpn = vm::vpn_of(src);
  const vm::Vpn svpn_end = vm::vpn_of(end - 1) + 1;

  topo::NodeId run_from = topo::kInvalidNode;
  topo::NodeId run_to = topo::kInvalidNode;
  std::uint64_t run_bytes = 0;
  auto flush = [&] {
    if (run_bytes == 0) return;
    charge_copy(t, run_from, run_to, run_bytes, cost_.user_copy_bytes_per_us,
                sim::CostKind::kMemAccess);
    run_bytes = 0;
  };

  for (; svpn < svpn_end; ++svpn) {
    const vm::Vaddr page_start = vm::addr_of(svpn);
    const vm::Vaddr lo = std::max(src, page_start);
    const vm::Vaddr hi = std::min(end, page_start + mem::kPageSize);
    const vm::Vaddr doff = dst + (lo - src);

    const vm::Pte* spte = pt.find(svpn);
    const vm::Pte* dpte = pt.find(vm::vpn_of(doff));
    assert(spte != nullptr && dpte != nullptr);
    const topo::NodeId f = spte->node();
    const topo::NodeId to = dpte->node();
    if (f != run_from || to != run_to) flush();
    run_from = f;
    run_to = to;
    run_bytes += hi - lo;
  }
  flush();

  if (phys_.backing() == mem::Backing::kMaterialized) {
    std::vector<std::byte> tmp(len);
    if (!peek(t.pid, src, tmp)) return -kEFAULT;
    if (!poke(t.pid, dst, tmp)) return -kEFAULT;
  }
  return 0;
}

std::uint64_t Kernel::release_frames(Process& p, vm::Vaddr addr,
                                     std::uint64_t len) {
  std::uint64_t released = 0;
  auto release_run = [&](vm::PageRun run) {
    vm::Vpn vpn = run.first;
    for (vm::Pte& pte : run.ptes) {
      const vm::Vpn v = vpn++;
      if (!pte.present()) continue;
      for (mem::FrameId f : p.replicas.take(v)) phys_.free(f);
      p.placement.dec(v, pte.node());
      phys_.free(pte.frame);
      pte = vm::Pte{};
      ++released;
    }
  };
  p.as.page_table().for_each_run(vm::vpn_of(addr),
                                 vm::vpn_of(vm::page_align_up(addr + len)),
                                 release_run);
  return released;
}

void Kernel::teardown_unmap(Pid pid, vm::Vaddr addr, std::uint64_t len) {
  if (len == 0) return;
  Process& p = proc(pid);
  release_frames(p, addr, len);
  p.as.unmap(addr, len);
  stlb_invalidate(p);
}

topo::NodeId Kernel::page_node(Pid pid, vm::Vaddr addr) const {
  const vm::Pte* pte = proc(pid).as.page_table().find(vm::vpn_of(addr));
  if (pte == nullptr || !pte->present()) return topo::kInvalidNode;
  return pte->node();
}

bool Kernel::peek(Pid pid, vm::Vaddr addr, std::span<std::byte> out) const {
  const Process& p = proc(pid);
  std::uint64_t done = 0;
  while (done < out.size()) {
    const vm::Vaddr a = addr + done;
    const vm::Pte* pte = p.as.page_table().find(vm::vpn_of(a));
    if (pte == nullptr || !pte->present()) return false;
    const std::byte* data = phys_.data(pte->frame);
    if (data == nullptr) return false;
    const std::uint64_t off = a & (mem::kPageSize - 1);
    const std::uint64_t n = std::min<std::uint64_t>(mem::kPageSize - off,
                                                    out.size() - done);
    std::memcpy(out.data() + done, data + off, n);
    done += n;
  }
  return true;
}

bool Kernel::poke(Pid pid, vm::Vaddr addr, std::span<const std::byte> in) {
  Process& p = proc(pid);
  std::uint64_t done = 0;
  while (done < in.size()) {
    const vm::Vaddr a = addr + done;
    vm::Pte* pte = p.as.page_table().find(vm::vpn_of(a));
    if (pte == nullptr || !pte->present()) return false;
    // Timing-free, but still a write: the transactional migrator's dirty
    // check must see it (tests poke pages mid-transaction).
    pte->set(vm::Pte::kDirty);
    std::byte* data = phys_.data(pte->frame);
    if (data == nullptr) return false;
    const std::uint64_t off = a & (mem::kPageSize - 1);
    const std::uint64_t n = std::min<std::uint64_t>(mem::kPageSize - off,
                                                    in.size() - done);
    std::memcpy(data + off, in.data() + done, n);
    done += n;
  }
  return true;
}

std::uint64_t Kernel::pages_on_node(Pid pid, vm::Vaddr addr, std::uint64_t len,
                                    topo::NodeId node) const {
  const Process& p = proc(pid);
  // Clamp the end at the highest mapping: no page lies above it, the chunk
  // loop below then never walks unmapped address space past it, and near
  // 2^64 `addr + len` would wrap.
  const vm::Vaddr top = p.as.mapped_top();
  const vm::Vaddr end = addr < top && len < top - addr ? addr + len : top;
  if (addr >= end) return 0;
  std::uint64_t count = 0;
  const vm::Vpn vbegin = vm::vpn_of(addr);
  const vm::Vpn vend = vm::vpn_of(end - 1) + 1;
  auto scan = [&](vm::Vpn a, vm::Vpn b) {
    p.as.page_table().for_each_run(a, b, [&](vm::ConstPageRun run) {
      for (const vm::Pte& pte : run.ptes)
        if (pte.present() && pte.node() == node) ++count;
    });
  };
  // Fully-covered chunks read one maintained counter each; only the partial
  // chunks at the range edges fall back to the per-PTE walk.
  constexpr vm::Vpn kC = vm::PageTable::kChunkPages;
  const vm::Vpn full_lo = (vbegin + kC - 1) & ~(kC - 1);
  const vm::Vpn full_hi = vend & ~(kC - 1);
  if (full_lo >= full_hi) {
    scan(vbegin, vend);
    return count;
  }
  scan(vbegin, full_lo);
  for (std::uint64_t key = full_lo >> vm::PageTable::kChunkBits;
       key < (full_hi >> vm::PageTable::kChunkBits); ++key)
    count += p.placement.chunk_count(key, node);
  scan(full_hi, vend);
  return count;
}

void Kernel::validate(Pid pid) const {
  // The allocator's own books first (tier totals, used counts, free bits):
  // an allocator that hands out a frame twice is named here, at the cause,
  // not below as the double-mapped frame it leads to.
  phys_.audit();
  const Process& p = proc(pid);
  std::uint64_t referenced = 0;
  // One bit per created frame of each node; the is_live check before every
  // claim keeps the node and index in range.
  std::vector<std::vector<bool>> seen(topo_.num_nodes());
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n)
    seen[n].resize(phys_.created_frames(n));
  auto claim = [&](mem::FrameId f, const char* what) {
    auto bit = seen[phys_.node_of(f)][phys_.index_of(f)];
    if (bit)
      throw std::logic_error{std::string{"validate: frame double-mapped ("} +
                             what + ")"};
    bit = true;
  };
  p.as.for_each([&](const vm::Vma& vma) {
    auto check_run = [&](vm::ConstPageRun run) {
      vm::Vpn vpn = run.first;
      for (const vm::Pte& pte : run.ptes) {
        const vm::Vpn v = vpn++;
        if (!pte.present()) continue;
        ++referenced;
        if (!phys_.is_live(pte.frame))
          throw std::logic_error{"validate: present PTE references a dead frame"};
        claim(pte.frame, "pte");
        if (pte.node() != phys_.node_of(pte.frame))
          throw std::logic_error{"validate: PTE node bits disagree with its frame"};
        if (pte.next_touch() && pte.hw_allows(vm::Prot::kRead))
          throw std::logic_error{"validate: next-touch PTE with live hw read bit"};
        if (pte.numa_hint() && pte.hw_allows(vm::Prot::kRead))
          throw std::logic_error{"validate: numa-hint PTE with live hw read bit"};
        if (pte.numa_hint() && pte.next_touch())
          throw std::logic_error{"validate: PTE both numa-hint and next-touch"};
        if ((pte.flags & vm::Pte::kTxn) && pte.hw_allows(vm::Prot::kWrite))
          throw std::logic_error{"validate: txn-protected PTE with live hw write bit"};
        const std::uint64_t nrep = p.replicas.replica_count(v);
        if (nrep != 0 && !(pte.flags & vm::Pte::kReplica))
          throw std::logic_error{"validate: replicas without kReplica flag"};
        referenced += nrep;
        for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
          const mem::FrameId rf = p.replicas.replica_on(v, n);
          if (rf == mem::kInvalidFrame) continue;
          if (!phys_.is_live(rf))
            throw std::logic_error{"validate: replica references a dead frame"};
          if (rf == pte.frame)
            throw std::logic_error{"validate: replica aliases the home frame"};
          if (phys_.node_of(rf) != n)
            throw std::logic_error{"validate: replica on the wrong node"};
          claim(rf, "replica");
        }
      }
    };
    p.as.page_table().for_each_run(vm::vpn_of(vma.start), vm::vpn_of(vma.end),
                                   check_run);
  });
  // Single-process kernels: everything allocated must be referenced — plus
  // any shadow frames held by in-flight transactional migrations, which by
  // design have no PTE pointing at them yet.
  const std::uint64_t shadow = phys_.total_shadow_frames();
  if (procs_.size() == 1 && referenced + shadow != phys_.total_used_frames())
    throw std::logic_error{"validate: frame leak or double-use (" +
                           std::to_string(referenced) + " referenced + " +
                           std::to_string(shadow) + " shadow vs " +
                           std::to_string(phys_.total_used_frames()) + " used)"};
  // Placement-count audit: recompute the per-chunk per-node rows from the
  // page table and compare against the maintained counters. A mismatch means
  // a map/remap/unmap site forgot to update Process::placement.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> fresh;
  p.as.for_each([&](const vm::Vma& vma) {
    p.as.page_table().for_each_run(
        vm::vpn_of(vma.start), vm::vpn_of(vma.end), [&](vm::ConstPageRun run) {
          vm::Vpn vpn = run.first;
          for (const vm::Pte& pte : run.ptes) {
            const vm::Vpn v = vpn++;
            if (!pte.present()) continue;
            std::vector<std::uint32_t>& row =
                fresh[v >> vm::PageTable::kChunkBits];
            if (row.empty()) row.assign(topo_.num_nodes(), 0);
            ++row[phys_.node_of(pte.frame)];
          }
        });
  });
  auto placement_mismatch = [](std::uint64_t key, topo::NodeId n,
                               std::uint32_t want, std::uint32_t got) {
    throw std::logic_error{"validate: placement count drift (chunk " +
                           std::to_string(key) + " node " + std::to_string(n) +
                           ": counted " + std::to_string(got) + ", page table " +
                           "has " + std::to_string(want) + ")"};
  };
  for (const auto& [key, row] : fresh)
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n)
      if (p.placement.chunk_count(key, n) != row[n])
        placement_mismatch(key, n, row[n], p.placement.chunk_count(key, n));
  p.placement.for_each_row([&](std::uint64_t key,
                               const std::vector<std::uint32_t>& row) {
    const auto it = fresh.find(key);
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
      const std::uint32_t want = it == fresh.end() ? 0u : it->second[n];
      if (row[n] != want) placement_mismatch(key, n, want, row[n]);
    }
  });
}

void Kernel::validate(const ThreadCtx& t) const {
  validate(t.pid);
  // Soft-TLB audit: re-resolve every current-generation descriptor against
  // the page table. Each covered page must still deliver exactly what the
  // fast path replays without walking: present, on the descriptor's node,
  // free of the excluded flags, readable/writable in hardware as recorded,
  // and dirty wherever a write descriptor would skip the dirty-set. A
  // violation means some mapping mutation forgot its stlb_invalidate().
  t.stlb.for_each([&](const SoftTlb::Entry& e) {
    const Process& p = proc(e.pid);
    if (e.gen != p.mapping_gen) return;  // stale by design: misses harmlessly
    const vm::PageTable& pt = p.as.page_table();
    for (vm::Vpn v = e.first; v < e.first + e.pages; ++v) {
      const vm::Pte* pte = pt.find(v);
      if (pte == nullptr || !pte->present())
        throw std::logic_error{"validate: stlb descriptor covers absent page"};
      if (phys_.node_of(pte->frame) != e.node)
        throw std::logic_error{"validate: stlb descriptor node drift"};
      if (pte->flags & vm::Pte::kStlbExcluded)
        throw std::logic_error{"validate: stlb descriptor over flagged page"};
      if ((e.prot & SoftTlb::kReadOk) && !(pte->flags & vm::Pte::kHwRead))
        throw std::logic_error{"validate: stlb read descriptor lost hw read"};
      if ((e.prot & SoftTlb::kWriteOk) &&
          (!(pte->flags & vm::Pte::kHwWrite) || !(pte->flags & vm::Pte::kDirty)))
        throw std::logic_error{
            "validate: stlb write descriptor over clean/protected page"};
    }
  });
}

std::string Kernel::meminfo() const {
  std::ostringstream os;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const std::uint64_t cap = phys_.capacity_frames(n);
    const std::uint64_t used = phys_.used_frames(n);
    os << "node " << n << ": " << (cap * mem::kPageSize >> 20) << " MB total, "
       << (used * mem::kPageSize >> 10) << " KB used, "
       << ((cap - used) * mem::kPageSize >> 20) << " MB free";
    if (topo_.tiered()) os << " [" << topo::mem_tier_name(topo_.tier_of(n)) << "]";
    os << "\n";
  }
  return os.str();
}

std::string Kernel::numa_maps(Pid pid) const {
  const Process& p = proc(pid);
  std::ostringstream os;
  p.as.for_each([&](const vm::Vma& vma) {
    os << std::hex << vma.start << std::dec << " ";
    switch (vma.policy.mode) {
      case vm::PolicyMode::kDefault: os << "default"; break;
      case vm::PolicyMode::kBind: os << "bind"; break;
      case vm::PolicyMode::kInterleave: os << "interleave"; break;
      case vm::PolicyMode::kPreferred: os << "prefer"; break;
      case vm::PolicyMode::kPreferredMany: os << "prefer (many)"; break;
    }
    std::vector<std::uint64_t> per_node(topo_.num_nodes(), 0);
    std::uint64_t present = 0;
    p.as.page_table().for_each_run(
        vm::vpn_of(vma.start), vm::vpn_of(vma.end), [&](vm::ConstPageRun run) {
          for (const vm::Pte& pte : run.ptes) {
            if (!pte.present()) continue;
            ++present;
            ++per_node[pte.node()];
          }
        });
    os << " anon=" << present;
    for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
      if (per_node[n] != 0) os << " N" << n << "=" << per_node[n];
    }
    if (!vma.name.empty()) os << " [" << vma.name << "]";
    os << "\n";
  });
  return os.str();
}

}  // namespace numasim::kern
