// lt: the loosely-timed fast path.  LtStimuliEngine replays one seeded
// workload over an LtBusInterface at a fixed quantum.  The target is a
// TlmRouter holding a TlmMemory and a RegisterPeripheral; one command in
// kPeripheralEvery goes to the peripheral, which grants no direct window,
// so those commands take the non-DMI fallback.  Each job's transcript
// must equal the functional transcript of the same workload, computed
// once during set-up.
#include <memory>

#include "common.hpp"
#include "hlcs/pattern/pattern.hpp"
#include "hlcs/sim/sim.hpp"
#include "hlcs/tlm/stimuli.hpp"
#include "hlcs/tlm/tlm.hpp"
#include "hlcs/verify/compare.hpp"

namespace flowbench {
namespace {

using namespace hlcs;
using namespace hlcs::sim::literals;

constexpr std::size_t kTxns = 40000;
constexpr std::size_t kPeripheralEvery = 10;  ///< 10% of the commands
constexpr std::uint32_t kMemBase = 0x10000;
constexpr std::uint32_t kMemSize = 0x4000;
constexpr std::uint32_t kPeriphBase = 0x2000;
/// 16 commands of the default 30 ns + 30 ns/word LT cost per quantum.
constexpr sim::Time kQuantum = sim::Time::ns(60 * 16);

std::vector<pattern::CommandType> make_workload(std::uint64_t seed) {
  std::vector<pattern::CommandType> cmds = tlm::random_workload(
      tlm::WorkloadConfig{.base = kMemBase, .span = kMemSize, .seed = seed},
      kTxns);
  // Peripheral registers (word offsets 0x0 CTRL, 0x4 STATUS, 0x8 DATA,
  // 0xC SCRATCH): writes start the device's operation or fill SCRATCH,
  // reads poll STATUS or fetch DATA.
  sim::Xorshift rng(sim::lane_seed(seed, 1));
  for (std::size_t i = 0; i < cmds.size(); i += kPeripheralEvery) {
    const std::uint32_t reg = static_cast<std::uint32_t>(rng.below(4)) * 4;
    if (rng.chance(1, 2)) {
      cmds[i] = pattern::CommandType{
          .op = pattern::BusOp::Read,
          .addr = kPeriphBase + reg,
          .data = {},
          .count = 1};
    } else {
      cmds[i] = pattern::CommandType{
          .op = pattern::BusOp::Write,
          .addr = kPeriphBase + reg,
          .data = {static_cast<std::uint32_t>(rng.next())}};
    }
  }
  return cmds;
}

/// The router, memory and peripheral every run starts from.
struct Targets {
  tlm::TlmMemory mem{kMemBase, kMemSize};
  tlm::RegisterPeripheral periph{kPeriphBase};
  tlm::TlmRouter router;
  Targets() {
    router.attach(mem);
    router.attach(periph);
  }
};

verify::Transcript functional_reference(
    const std::vector<pattern::CommandType>& cmds) {
  sim::Kernel k;
  Targets t;
  pattern::FunctionalBusInterface iface(k, "iface", t.router);
  pattern::Application app(k, "app", iface, cmds);
  k.run();
  if (!app.done()) throw std::runtime_error("functional reference stalled");
  return app.transcript();
}

/// One LT system under test.
struct LtSystem {
  sim::Kernel k;
  Targets t;
  pattern::LtBusInterface bus;
  pattern::LtStimuliEngine engine;

  explicit LtSystem(const std::vector<pattern::CommandType>& cmds)
      : bus(k, "lt", t.router, pattern::LtConfig{.quantum = kQuantum}),
        engine(bus, cmds) {}
};

class Lt final : public Workload {
public:
  explicit Lt(const Options& o) : o_(o) {}

  void setup() override {
    cmds_ = make_workload(o_.seed);
    std::vector<pattern::CommandType> ref_cmds = cmds_;
    if (o_.inject_fault) {
      for (pattern::CommandType& c : ref_cmds) {
        if (!c.data.empty()) {
          c.data[0] ^= 1;
          break;
        }
      }
    }
    reference_ = functional_reference(ref_cmds);
  }

  JobResult job(std::uint64_t index, Ledger* l) override {
    JobResult r;
    const double t0 = wall_s();
    auto sys = std::make_unique<LtSystem>(cmds_);
    const double t1 = wall_s();
    for (int slice = 0; slice < 100000 && !sys->engine.done(); ++slice) {
      sys->k.run_for(1000_us);
    }
    const double t2 = wall_s();
    const verify::CompareResult cmp =
        timed(l, "verify.transcript_compare_ms", [&] {
          return verify::compare_functional(reference_,
                                            sys->engine.transcript());
        });
    if (!sys->engine.done()) {
      r.failure = "LT engine did not finish";
    } else if (!cmp) {
      r.failure = "LT vs functional: " + cmp.first_difference;
    }

    const sim::KernelStats ks = sys->k.stats();
    const tlm::TlmStats ts = sys->bus.tlm_stats();
    const pattern::InterfaceStats is = sys->bus.stats();
    const std::uint64_t end_ps = sys->k.now().picos();
    const std::size_t txns = sys->engine.transcript().size();
    if (index == 0) {
      fp_.count("sim_ps", end_ps);
      fp_.count("deltas", ks.deltas);
      fp_.count("resumes", ks.resumes);
      fp_.count("timed_actions", ks.timed_actions);
      fp_.count("time_warps", ks.time_warps);
      fp_.count("quanta", ts.quanta);
      fp_.count("syncs", ts.syncs);
      fp_.count("dmi_hits", ts.dmi_hits);
      fp_.count("dmi_misses", ts.dmi_misses);
      fp_.count("batched_guarded_calls", ts.batched_guarded_calls);
      fp_.count("txns", txns);
      fp_.digest("transcript_fnv", fnv_transcript(sys->engine.transcript()));
    }
    const double t3 = wall_s();
    sys.reset();
    const double t4 = wall_s();

    r.txns = static_cast<double>(txns);
    r.sim_us = static_cast<double>(end_ps) / 1e6;
    // Equivalent cycles of the 10 ns reference bus clock, one lane.
    r.lane_cycles = r.sim_us * 100;
    if (l) {
      l->span("lt.build_ms", ((t1 - t0) + (t4 - t3)) * 1e3);
      l->span("lt.run_ms", (t2 - t1) * 1e3);
      l->count("txns", r.txns);
      l->count("kernel.deltas", ks.deltas);
      l->count("kernel.resumes", ks.resumes);
      l->count("kernel.timed_actions", ks.timed_actions);
      l->count("iface.commands", is.commands_served);
      l->count("tlm.batched", ts.batched_guarded_calls);
      l->count("tlm.quanta", ts.quanta);
      l->count("tlm.syncs", ts.syncs);
      l->count("tlm.warps", ts.warps);
      l->count("tlm.dmi_hits", ts.dmi_hits);
      l->count("tlm.dmi_misses", ts.dmi_misses);
    }
    return r;
  }

  void per_layer(const Ledger& l, Metrics& m) const override {
    const double txns = l.total("txns");
    for (const char* name :
         {"lt.build_ms", "lt.run_ms", "verify.transcript_compare_ms"}) {
      m.push_back({name, l.median(name)});
    }
    m.push_back({"sim.kernel.deltas_per_txn", ratio(l.total("kernel.deltas"), txns)});
    m.push_back({"sim.kernel.resumes_per_txn",
                 ratio(l.total("kernel.resumes"), txns)});
    m.push_back({"sim.kernel.timed_actions_per_txn",
                 ratio(l.total("kernel.timed_actions"), txns)});
    m.push_back({"osss.commands_per_txn", ratio(l.total("iface.commands"), txns)});
    m.push_back({"osss.batched_calls_per_txn", ratio(l.total("tlm.batched"), txns)});
    m.push_back({"tlm.quanta_per_ktxn", ratio(l.total("tlm.quanta"), txns / 1000)});
    m.push_back({"tlm.warp_ratio", ratio(l.total("tlm.warps"), l.total("tlm.syncs"))});
    m.push_back({"tlm.dmi_hit_ratio",
                 ratio(l.total("tlm.dmi_hits"),
                       l.total("tlm.dmi_hits") + l.total("tlm.dmi_misses"))});
  }

private:
  Options o_;
  std::vector<pattern::CommandType> cmds_;
  verify::Transcript reference_;
};

}  // namespace

std::unique_ptr<Workload> make_lt(const Options& o) {
  return std::make_unique<Lt>(o);
}

}  // namespace flowbench
