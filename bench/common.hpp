// Shared support for the paper-reproduction benchmark binaries.
//
// Each binary regenerates one table or figure of Goglin & Furmento 2009,
// printing the same rows/series the paper reports. `--csv` switches to
// machine-readable output for plotting.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kern/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "rt/machine.hpp"
#include "rt/team.hpp"
#include "rt/thread.hpp"

namespace numasim::bench {

struct Options {
  bool csv = false;
  bool quick = false;      ///< reduced sweeps for smoke runs
  bool metrics = false;    ///< print a metrics report to stderr on exit
  std::string trace_file;  ///< write Chrome trace-event JSON here ("--trace=")
  /// Migration-engine locking ("--lock-model=coarse|range"). Coarse is the
  /// paper-faithful default; range is the scalable engine.
  kern::LockModel lock_model = kern::LockModel::kCoarse;
  /// Migration engine ("--migration-mode=stop_and_copy|transactional").
  /// Stop-and-copy is the paper-faithful default; transactional is the
  /// shadow-copy engine (kern/txn_migrate.hpp).
  kern::MigrationMode migration_mode = kern::MigrationMode::kStopAndCopy;
  /// Topology-spec override ("--tier-spec=..."), validated at parse time.
  /// Empty keeps each binary's built-in machine. A tiered spec also turns
  /// the kernel's tier promotion/demotion loops on (phantom_kernel_config).
  std::string tier_spec;
  /// Tier demotion ("--demotion=on|off"); only meaningful on tiered specs.
  bool demotion = true;
  /// Soft-TLB access fast path ("--stlb=on|off"). Host-side memoization
  /// only: on and off produce event-identical simulations, so this knob
  /// exists for determinism double-runs and host-cost A/B, not behaviour.
  bool stlb = true;
};

/// The run's parsed options; parse_options() fills it so measurement helpers
/// (which construct kernels locally) pick up machine-wide knobs like the
/// lock model without threading Options through every signature.
inline Options& current_options() {
  static Options o;
  return o;
}

/// Binary-local usage text appended by print_usage. Benches with their own
/// enum flags (serving_mixes's --mix/--placement) set this before parsing,
/// so a bad value rejected by parse_enum_flag prints the full flag surface
/// of the binary, not just the common one.
inline const char*& extra_usage() {
  static const char* text = nullptr;
  return text;
}

/// The machine-wide flags a binary may refuse, one per KernelConfig field
/// that phantom_kernel_config takes from Options. A binary accepts a flag
/// only when every machine it builds takes that field from
/// phantom_kernel_config and keeps it; parse_options refuses the others
/// with exit 2, so no flag is parsed and then dropped. --stlb is not here:
/// every binary applies it.
struct MachineFlags {
  bool lock_model = true;      ///< --lock-model
  bool migration_mode = true;  ///< --migration-mode
  bool tier_spec = true;       ///< --tier-spec
  bool demotion = true;        ///< --demotion
};

/// The running binary's accepted machine-wide flags; parse_options() sets
/// it, print_usage() lists only these.
inline MachineFlags& accepted_flags() {
  static MachineFlags accepted;
  return accepted;
}

/// One machine-wide flag: its name, the MachineFlags member that admits it,
/// and its usage lines.
struct MachineFlagDoc {
  const char* name;
  bool MachineFlags::*accepted;
  const char* synopsis;
  const char* help;
};

inline constexpr MachineFlagDoc kMachineFlagDocs[] = {
    {"--lock-model", &MachineFlags::lock_model, "[--lock-model=coarse|range]",
     "  --lock-model=M migration locking: coarse (paper-faithful\n"
     "                 default) or range (scalable engine)\n"},
    {"--migration-mode", &MachineFlags::migration_mode,
     "[--migration-mode=stop_and_copy|transactional]",
     "  --migration-mode=M  page-migration engine: stop_and_copy\n"
     "                 (paper-faithful default) or transactional\n"
     "                 (shadow-copy with dirty retry)\n"},
    {"--tier-spec", &MachineFlags::tier_spec, "[--tier-spec=SPEC]",
     "  --tier-spec=S  override the machine with a topology spec\n"
     "                 (topo::Topology::from_spec grammar, e.g.\n"
     "                 \"nodes=2 cores=4 tiers=fast:1,dram:1\");\n"
     "                 a tiered spec enables tier promote/demote\n"},
    {"--demotion", &MachineFlags::demotion, "[--demotion=on|off]",
     "  --demotion=D   tier demotion on|off (default on; only\n"
     "                 meaningful on a tiered machine)\n"},
};

inline void print_usage(const char* prog) {
  const MachineFlags& accepted = accepted_flags();
  std::fprintf(stderr,
               "usage: %s [--csv] [--quick] [--metrics] [--trace=FILE]\n"
               "          [--stlb=on|off]\n",
               prog);
  for (const MachineFlagDoc& f : kMachineFlagDocs)
    if (accepted.*f.accepted) std::fprintf(stderr, "          %s\n", f.synopsis);
  std::fputs("  --csv          machine-readable output\n"
             "  --quick        reduced sweeps for smoke runs\n"
             "  --metrics      print a metrics report to stderr on exit\n"
             "  --trace=FILE   write a Chrome trace-event JSON file\n"
             "                 (open in chrome://tracing or ui.perfetto.dev)\n"
             "  --stlb=S       soft-TLB access fast path on|off (default\n"
             "                 on; host-side only — simulated events are\n"
             "                 identical either way)\n",
             stderr);
  for (const MachineFlagDoc& f : kMachineFlagDocs)
    if (accepted.*f.accepted) std::fputs(f.help, stderr);
  if (extra_usage() != nullptr) std::fputs(extra_usage(), stderr);
}

/// One name -> value row of an enum-valued command-line flag.
template <typename E>
struct EnumFlagOption {
  const char* name;
  E value;
};

/// Match `arg` against `--<flag>=<value>` where <value> must name a row of
/// `table`. Returns false when `arg` is not this flag at all; on a matching
/// flag with an unknown value, prints the allowed set + usage and exits 2.
template <typename E, std::size_t N>
inline bool parse_enum_flag(const char* prog, const char* arg, const char* flag,
                            const EnumFlagOption<E> (&table)[N], E& out) {
  const std::size_t flen = std::strlen(flag);
  if (std::strncmp(arg, flag, flen) != 0 || arg[flen] != '=') return false;
  const char* v = arg + flen + 1;
  for (const EnumFlagOption<E>& opt : table) {
    if (std::strcmp(v, opt.name) == 0) {
      out = opt.value;
      return true;
    }
  }
  std::fprintf(stderr, "%s: bad %s '%s' (", prog, flag, v);
  for (std::size_t i = 0; i < N; ++i)
    std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", table[i].name);
  std::fprintf(stderr, ")\n");
  print_usage(prog);
  std::exit(2);
}

/// Parse the common flags into current_options(). `accepts` names the
/// machine-wide flags this binary's machines apply; any other is a usage
/// error that names the flag.
inline Options parse_options(int argc, char** argv, MachineFlags accepts = {}) {
  static constexpr EnumFlagOption<kern::LockModel> kLockModels[] = {
      {"coarse", kern::LockModel::kCoarse},
      {"range", kern::LockModel::kRange},
  };
  static constexpr EnumFlagOption<kern::MigrationMode> kMigrationModes[] = {
      {"stop_and_copy", kern::MigrationMode::kStopAndCopy},
      {"transactional", kern::MigrationMode::kTransactional},
  };
  static constexpr EnumFlagOption<bool> kOnOff[] = {
      {"on", true},
      {"off", false},
  };
  accepted_flags() = accepts;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    for (const MachineFlagDoc& f : kMachineFlagDocs) {
      const std::size_t n = std::strlen(f.name);
      if (accepts.*f.accepted || std::strncmp(a, f.name, n) != 0 ||
          (a[n] != '=' && a[n] != '\0'))
        continue;
      std::fprintf(stderr,
                   "%s: %s is not accepted: this benchmark sets that machine "
                   "setting itself\n",
                   argv[0], f.name);
      print_usage(argv[0]);
      std::exit(2);
    }
    if (std::strcmp(a, "--csv") == 0) {
      o.csv = true;
    } else if (std::strcmp(a, "--quick") == 0) {
      o.quick = true;
    } else if (std::strcmp(a, "--metrics") == 0) {
      o.metrics = true;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      o.trace_file = a + 8;
    } else if (parse_enum_flag(argv[0], a, "--lock-model", kLockModels,
                               o.lock_model) ||
               parse_enum_flag(argv[0], a, "--migration-mode", kMigrationModes,
                               o.migration_mode) ||
               parse_enum_flag(argv[0], a, "--demotion", kOnOff, o.demotion) ||
               parse_enum_flag(argv[0], a, "--stlb", kOnOff, o.stlb)) {
      // handled
    } else if (std::strncmp(a, "--tier-spec=", 12) == 0) {
      o.tier_spec = a + 12;
      try {
        (void)topo::Topology::from_spec(o.tier_spec);
      } catch (const topo::SpecError& e) {
        std::fprintf(stderr, "%s: bad --tier-spec: %s\n", argv[0], e.what());
        print_usage(argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      print_usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], a);
      print_usage(argv[0]);
      std::exit(2);
    }
  }
  current_options() = o;
  return o;
}

inline void print_header(const Options& o, const std::string& title,
                         const std::vector<std::string>& cols) {
  if (o.csv) {
    std::string line;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (i != 0) line += ',';
      line += cols[i];
    }
    std::printf("%s\n", line.c_str());
  } else {
    std::printf("# %s\n", title.c_str());
    for (std::size_t i = 0; i < cols.size(); ++i)
      std::printf("%s%-14s", i == 0 ? "" : " ", cols[i].c_str());
    std::printf("\n");
  }
}

inline void print_row(const Options& o, const std::vector<std::string>& cells) {
  if (o.csv) {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) line += ',';
      line += cells[i];
    }
    std::printf("%s\n", line.c_str());
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i)
      std::printf("%s%-14s", i == 0 ? "" : " ", cells[i].c_str());
    std::printf("\n");
  }
}

inline std::string fmt(double v, const char* spec = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

inline std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

class Observability;

/// Process-wide hook: the live Observability instance, if any. Measurement
/// helpers construct kernels locally, so they announce each one through
/// observe() instead of threading a handle through every signature.
inline Observability*& obs_hook() {
  static Observability* hook = nullptr;
  return hook;
}

/// Owns the observability state of one benchmark run: a metrics registry
/// that accumulates across every kernel the run constructs (kernel
/// destruction folds its counters in), a Chrome trace writer, and a
/// numastat-style periodic reporter. Reports go to stderr so `--csv` stdout
/// stays machine-readable. Does nothing (and attaches nothing) unless
/// `--metrics` or `--trace=` was given.
class Observability {
 public:
  explicit Observability(Options o) : opts_(std::move(o)) {
    if (!opts_.trace_file.empty())
      writer_ = std::make_unique<obs::ChromeTraceWriter>();
    if (opts_.metrics) {
      obs::PeriodicReporter::Output out = [](const std::string& s) {
        std::fputs(s.c_str(), stderr);
      };
      reporter_ = std::make_unique<obs::PeriodicReporter>(
          registry_, kReportInterval, std::move(out));
    }
    obs_hook() = this;
  }
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
  ~Observability() {
    if (obs_hook() == this) obs_hook() = nullptr;
  }

  void attach(kern::Kernel& k) {
    if (opts_.metrics) k.set_metrics(&registry_);
    if (writer_ != nullptr) k.add_trace_sink(writer_.get());
    if (reporter_ != nullptr) k.add_trace_sink(reporter_.get());
  }
  void attach(rt::Machine& m) { attach(m.kernel()); }

  const obs::Registry& registry() const { return registry_; }

  /// Flush at the end of main: write the trace file, print the cumulative
  /// metrics report.
  void finish() {
    if (writer_ != nullptr) {
      if (writer_->write_file(opts_.trace_file)) {
        std::fprintf(stderr, "# trace: %zu events -> %s",
                     writer_->size(), opts_.trace_file.c_str());
        if (writer_->dropped() > 0)
          std::fprintf(stderr, " (%llu dropped)",
                       static_cast<unsigned long long>(writer_->dropped()));
        std::fprintf(stderr, "\n");
      } else {
        std::fprintf(stderr, "# trace: failed to write %s\n",
                     opts_.trace_file.c_str());
      }
    }
    if (opts_.metrics)
      std::fprintf(stderr, "== metrics (cumulative) ==\n%s",
                   registry_.render().c_str());
  }

 private:
  static constexpr sim::Time kReportInterval = 10'000'000;  // 10 ms simulated

  Options opts_;
  obs::Registry registry_;
  std::unique_ptr<obs::ChromeTraceWriter> writer_;
  std::unique_ptr<obs::PeriodicReporter> reporter_;
};

/// Announce a freshly constructed kernel/machine to the run's Observability
/// (no-op when none is live or no observability flag was given).
inline void observe(kern::Kernel& k) {
  if (obs_hook() != nullptr) obs_hook()->attach(k);
}
inline void observe(rt::Machine& m) { observe(m.kernel()); }

/// Post-migration assertion: abort the benchmark (exit 1) unless all pages
/// of [addr, addr+len) landed on `node`. Pure host-side inspection — it
/// never advances simulated time, so adding it to a bench cannot perturb
/// golden outputs. `what` names the buffer in the failure message.
inline void expect_on_node(rt::Thread& th, vm::Vaddr addr, std::uint64_t len,
                           topo::NodeId node, const char* what) {
  const std::uint64_t want = len / mem::kPageSize;
  const std::uint64_t got =
      th.kernel().pages_on_node(th.ctx().pid, addr, len, node);
  if (got != want) {
    std::fprintf(stderr,
                 "expect_on_node: %s: %llu/%llu pages on node %u "
                 "(addr=0x%llx len=%llu)\n",
                 what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want), node,
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(len));
    std::exit(1);
  }
}

/// Phantom-backed kernel config on topology `t`, honoring the run's
/// machine-wide options (lock model, migration mode, tier spec/demotion).
/// A `--tier-spec` override replaces `t`; tier promotion/demotion is enabled
/// exactly when the resulting topology is tiered, so flat runs are
/// bit-identical with and without the tier code.
inline kern::KernelConfig phantom_kernel_config(const topo::Topology& t) {
  kern::KernelConfig cfg;
  const Options& o = current_options();
  cfg.topology = o.tier_spec.empty() ? t : topo::Topology::from_spec(o.tier_spec);
  cfg.backing = mem::Backing::kPhantom;
  cfg.lock_model = o.lock_model;
  cfg.migration_mode = o.migration_mode;
  cfg.tiers.enabled = cfg.topology.tiered();
  cfg.tiers.demotion = o.demotion;
  cfg.stlb = o.stlb;
  return cfg;
}

/// Fresh phantom-backed paper machine (one per measurement so hardware
/// timelines start idle).
inline kern::Kernel fresh_kernel(const topo::Topology& t) {
  return kern::Kernel(phantom_kernel_config(t));
}

inline rt::Machine::Config phantom_config() {
  return phantom_kernel_config(topo::Topology::quad_opteron());
}

}  // namespace numasim::bench
