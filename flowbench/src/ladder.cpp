// ladder: the paper's Fig. 2 flow on one seeded workload, every job.
//   (1) functional run: FunctionalBusInterface + Application
//   (2) synthesis of the bus-access channel: make_synthesisable_channel
//       -> synthesize -> optimize -> emit_verilog
//   (3) post-synthesis co-simulation: RtlPciSystem on a pin-level PCI
//       bus (10 ns clock) with a PciMonitor, dumping a VCD
//   (4) verify::compare_functional of the RTL transcript against (1)
//   (5) scalar step-3 check_equivalence of the channel, one lane
//   (6) verify::compare_vcd_files against the reference dump of set-up
#include <optional>

#include "common.hpp"
#include "hlcs/pattern/pattern.hpp"
#include "hlcs/pci/pci.hpp"
#include "hlcs/sim/sim.hpp"
#include "hlcs/synth/synth.hpp"
#include "hlcs/tlm/stimuli.hpp"
#include "hlcs/tlm/tlm.hpp"
#include "hlcs/verify/compare.hpp"
#include "hlcs/verify/vcd_reader.hpp"

namespace flowbench {
namespace {

using namespace hlcs;
using namespace hlcs::sim::literals;

constexpr std::size_t kTxns = 600;
constexpr std::size_t kEquivCycles = 2000;
constexpr std::uint32_t kBase = 0x1000;
constexpr std::uint32_t kSize = 0x1000;

/// The RtlPciSystem's synthesis options (rtl_pci_system.hpp); step 5
/// checks the channel under the same ones.
const synth::SynthOptions kChannelOpts{.clients = 2,
                                       .policy = osss::PolicyKind::Fifo,
                                       .priorities = {}};

struct FunctionalOut {
  verify::Transcript transcript;
  sim::KernelStats kernel;
  pattern::InterfaceStats iface;
};

FunctionalOut functional_run(const std::vector<pattern::CommandType>& cmds) {
  sim::Kernel k;
  tlm::TlmMemory mem(kBase, kSize);
  pattern::FunctionalBusInterface iface(k, "iface", mem);
  pattern::Application app(k, "app", iface, cmds);
  k.run();
  if (!app.done()) throw std::runtime_error("functional run did not finish");
  return {app.transcript(), k.stats(), iface.stats()};
}

struct CosimOut {
  bool done = false;
  verify::Transcript transcript;
  sim::KernelStats kernel;
  synth::NetlistStats netlist;
  pci::MasterStats master;
  sim::TraceStats trace;
  std::uint64_t violations = 0;
  std::uint64_t channel_grants = 0;
  std::uint64_t end_ps = 0;  ///< completion of the last command
  double build_ms = 0;  ///< construction and teardown (trace close included)
  double run_ms = 0;    ///< inside run_for calls
};

/// Pin-level PCI bus with a 10 ns clock, a monitor and one target; the
/// bus-access element under test is added by the caller.
struct PinLevel {
  sim::Kernel k;
  sim::Clock clk{k, "clk", 10_ns};
  pci::PciBus bus{k, "pci", clk};
  pci::PciArbiter arb{k, "arb", bus};
  pci::PciMonitor mon{k, "mon", bus};
  pci::PciTarget target{k, "t0", bus,
                        pci::TargetConfig{.base = kBase, .size = kSize}};
};

/// Run `k` in 10 us slices until `done()` (bounded), timing the run_for
/// calls only.
template <class Done>
double run_until_done(sim::Kernel& k, Done done) {
  const double t0 = wall_s();
  for (int slice = 0; slice < 100000 && !done(); ++slice) k.run_for(10_us);
  return (wall_s() - t0) * 1e3;
}

CosimOut cosim_run(const std::vector<pattern::CommandType>& cmds,
                   const std::string* vcd_path) {
  CosimOut out;
  const double t0 = wall_s();
  {
    PinLevel p;
    pattern::RtlPciSystem system(p.k, "rtl_sys", p.bus, p.arb);
    std::optional<sim::Trace> trace;
    if (vcd_path) {
      trace.emplace(*vcd_path);
      p.bus.trace_all(*trace);
      p.k.attach_trace(*trace);
    }
    p.k.spawn("app", [&]() -> sim::Task {
      for (const pattern::CommandType& cmd : cmds) {
        const sim::Time issued = p.k.now();
        pattern::ResponseType resp;
        co_await system.execute(cmd, resp);
        out.transcript.record(cmd, resp, issued, p.k.now());
      }
      out.done = true;
    });
    out.run_ms = run_until_done(p.k, [&] { return out.done; });
    if (!out.transcript.empty()) {
      out.end_ps = out.transcript.entries().back().completed.picos();
    }
    out.kernel = p.k.stats();
    out.netlist = system.rtl_channel().netlist_sim().stats();
    out.master = system.master_stats();
    out.violations = p.mon.total_violations();
    out.channel_grants = system.rtl_channel().grants();
    if (trace) {
      trace->flush();
      out.trace = trace->stats();
      p.k.detach_trace();
    }
  }
  out.build_ms = (wall_s() - t0) * 1e3 - out.run_ms;
  return out;
}

/// The behavioural pin-level interface on the same workload: what the
/// co-simulation costs without the synthesised channel.
double behavioural_run_ms(const std::vector<pattern::CommandType>& cmds) {
  PinLevel p;
  pattern::PciBusInterface iface(p.k, "iface", p.bus, p.arb);
  pattern::Application app(p.k, "app", iface, cmds);
  const double ms = run_until_done(p.k, [&] { return app.done(); });
  if (!app.done()) throw std::runtime_error("behavioural run did not finish");
  return ms;
}

class Ladder final : public Workload {
public:
  explicit Ladder(const Options& o) : o_(o) {}

  void setup() override {
    cmds_ = tlm::random_workload(
        tlm::WorkloadConfig{.base = kBase, .span = 0x800, .seed = o_.seed},
        kTxns);
    ref_vcd_ = o_.scratch + "/ladder_ref.vcd";
    job_vcd_ = o_.scratch + "/ladder_job.vcd";
    std::vector<pattern::CommandType> ref_cmds = cmds_;
    if (o_.inject_fault) {
      for (pattern::CommandType& c : ref_cmds) {
        if (!c.data.empty()) {
          c.data[0] ^= 1;  // one flipped bit on the AD lines
          break;
        }
      }
    }
    const CosimOut ref = cosim_run(ref_cmds, &ref_vcd_);
    if (!ref.done) throw std::runtime_error("reference co-simulation stalled");
  }

  JobResult job(std::uint64_t index, Ledger* l) override {
    JobResult r;
    auto gate = [&](bool ok, const std::string& what) {
      if (!ok && r.failure.empty()) r.failure = what;
    };

    // (1) functional model
    const FunctionalOut func = timed(l, "ladder.functional_ms",
                                     [&] { return functional_run(cmds_); });

    // (2) synthesis of the bus-access channel
    const pattern::SynthesisableChannel ch = timed(
        l, "synth.parse_ms", [] { return pattern::make_synthesisable_channel(); });
    synth::Netlist nl = timed(l, "synth.synthesize_ms", [&] {
      return synth::synthesize(ch.desc, kChannelOpts);
    });
    nl = timed(l, "synth.optimize_ms", [&] { return synth::optimize(nl); });
    const std::string verilog =
        timed(l, "synth.verilog_ms", [&] { return synth::emit_verilog(nl); });

    // (3) post-synthesis co-simulation with the waveform dump
    const CosimOut co = cosim_run(cmds_, &job_vcd_);
    if (l) {
      l->span("ladder.cosim_build_ms", co.build_ms);
      l->span("ladder.cosim_ms", co.run_ms);
    }
    gate(co.done, "co-simulation stalled");
    gate(co.violations == 0, "PciMonitor reported protocol violations");

    // (4) transcript consistency
    const verify::CompareResult cmp =
        timed(l, "verify.transcript_compare_ms", [&] {
          return verify::compare_functional(func.transcript, co.transcript);
        });
    gate(static_cast<bool>(cmp), "RTL vs functional: " + cmp.first_difference);

    // (5) scalar step-3 equivalence of the channel
    const synth::EquivResult eq = timed(l, "ladder.equiv_scalar_ms", [&] {
      return synth::check_equivalence(
          ch.desc, kChannelOpts,
          synth::EquivOptions{.cycles = kEquivCycles,
                              .seed = sim::lane_seed(o_.seed, 1)});
    });
    gate(static_cast<bool>(eq), "step-3 equivalence: " + eq.first_mismatch);

    // (6) waveform consistency against the set-up reference
    const verify::WaveCompareResult wc =
        timed(l, "verify.vcd_compare_ms",
              [&] { return verify::compare_vcd_files(ref_vcd_, job_vcd_); });
    gate(static_cast<bool>(wc), "VCD compare: " + wc.first_difference);

    r.txns = static_cast<double>(co.transcript.size());
    r.lane_cycles = static_cast<double>(eq.cycles);
    r.sim_us = static_cast<double>(co.end_ps) / 1e6;

    if (index == 0) {
      fp_.count("sim_ps", co.end_ps);
      fp_.count("deltas", co.kernel.deltas + func.kernel.deltas);
      fp_.count("resumes", co.kernel.resumes + func.kernel.resumes);
      fp_.count("timed_actions",
                co.kernel.timed_actions + func.kernel.timed_actions);
      fp_.count("channel_grants", co.channel_grants);
      fp_.count("equiv_grants", eq.grants);
      fp_.count("lane_cycles", eq.cycles);
      fp_.count("txns", co.transcript.size());
      fp_.count("trace_bytes", co.trace.bytes_written);
      fp_.count("pci_retries", co.master.retries);
      fp_.digest("transcript_fnv", fnv_transcript(co.transcript));
      fp_.digest("functional_fnv", fnv_transcript(func.transcript));
      fp_.digest("verilog_fnv", fnv_bytes(verilog));
    }
    if (l) {
      l->count("txns", r.txns);
      l->count("kernel.deltas", co.kernel.deltas + func.kernel.deltas);
      l->count("kernel.resumes", co.kernel.resumes + func.kernel.resumes);
      l->count("kernel.timed_actions",
               co.kernel.timed_actions + func.kernel.timed_actions);
      l->count("iface.commands", func.iface.commands_served);
      l->count("netlist.combs", nl.combs().size());
      l->count("netlist.settles", co.netlist.settles);
      l->count("netlist.edges", co.netlist.edges);
      l->count("netlist.combs_evaluated", co.netlist.combs_evaluated);
      l->count("netlist.combs_possible", co.netlist.combs_possible);
      l->count("netlist.tape_instructions", co.netlist.tape_instructions);
      l->count("pci.retries", co.master.retries);
      l->count("pci.arb_wait", co.master.arbitration_wait_cycles);
      l->count("pci.data_wait", co.master.data_wait_cycles);
      l->count("trace.bytes", co.trace.bytes_written);
      l->count("trace.samples", co.trace.samples);
      l->count("trace.dirty_visits", co.trace.dirty_visits);
      l->count("jobs", 1);
    }
    return r;
  }

  /// Splits the co-simulation leg: the same leg without the trace, and
  /// the behavioural pin-level interface on the same workload.
  std::string diagnose(Ledger& l) override {
    const CosimOut bare = cosim_run(cmds_, nullptr);
    if (!bare.done) return "untraced co-simulation stalled";
    const double beh = behavioural_run_ms(cmds_);
    l.diag("sim.trace.ms", l.current("ladder.cosim_ms") - bare.run_ms);
    l.diag("ladder.channel_ms_est", bare.run_ms - beh);
    return {};
  }

  void per_layer(const Ledger& l, Metrics& m) const override {
    const double txns = l.total("txns");
    for (const char* name :
         {"ladder.functional_ms", "synth.parse_ms", "synth.synthesize_ms",
          "synth.optimize_ms", "synth.verilog_ms", "ladder.cosim_build_ms",
          "ladder.cosim_ms", "verify.transcript_compare_ms",
          "ladder.equiv_scalar_ms", "verify.vcd_compare_ms", "sim.trace.ms",
          "ladder.channel_ms_est"}) {
      m.push_back({name, l.median(name)});
    }
    m.push_back({"sim.kernel.deltas_per_txn", ratio(l.total("kernel.deltas"), txns)});
    m.push_back({"sim.kernel.resumes_per_txn",
                 ratio(l.total("kernel.resumes"), txns)});
    m.push_back({"sim.kernel.timed_actions_per_txn",
                 ratio(l.total("kernel.timed_actions"), txns)});
    m.push_back({"osss.commands_per_txn", ratio(l.total("iface.commands"), txns)});
    m.push_back({"synth.netlist_combs",
                 ratio(l.total("netlist.combs"), l.total("jobs"))});
    m.push_back({"synth.netlist.settles_per_edge",
                 ratio(l.total("netlist.settles"), l.total("netlist.edges"))});
    m.push_back({"synth.netlist.comb_eval_ratio",
                 ratio(l.total("netlist.combs_evaluated"),
                       l.total("netlist.combs_possible"))});
    m.push_back({"synth.netlist.tape_insns_per_txn",
                 ratio(l.total("netlist.tape_instructions"), txns)});
    m.push_back({"pci.retries_per_txn", ratio(l.total("pci.retries"), txns)});
    m.push_back({"pci.arb_wait_cycles_per_txn",
                 ratio(l.total("pci.arb_wait"), txns)});
    m.push_back({"pci.data_wait_cycles_per_txn",
                 ratio(l.total("pci.data_wait"), txns)});
    m.push_back({"sim.trace.bytes_per_txn", ratio(l.total("trace.bytes"), txns)});
    m.push_back({"sim.trace.dirty_visits_per_sample",
                 ratio(l.total("trace.dirty_visits"), l.total("trace.samples"))});
  }

private:
  Options o_;
  std::vector<pattern::CommandType> cmds_;
  std::string ref_vcd_;
  std::string job_vcd_;
};

}  // namespace

std::unique_ptr<Workload> make_ladder(const Options& o) {
  return std::make_unique<Ladder>(o);
}

}  // namespace flowbench
