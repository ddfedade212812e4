// Native tape JIT: bit-identity against the interpreters, everywhere.
//
// The contract is the same absolute one the batch engine carries: a
// simulation whose combs run as native code must be indistinguishable,
// net for net and cycle for cycle, from the tree-walk reference
// (reference_sim.hpp) and the interpreted tape -- across random
// netlists (including Mul and data-dependent shifts, which deopt per
// comb), the 64-lane batch engine, the shipped CLI objects, the lowered
// monitor automata, reset pulses, and any worker thread count.  The
// scalar NetlistSim runs native code whenever the host compiles it; on
// hosts where host_supported() is false (non-x86-64, or HLCS_JIT=OFF
// builds) it runs its incremental interpreter, the batch JIT request is
// a silent no-op, and these suites degenerate into interpreter-vs-
// reference checks that must still pass.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hlcs/check/object_rules.hpp"
#include "hlcs/check/pci_rules.hpp"
#include "hlcs/sim/clock.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/synth/batch_tape.hpp"
#include "hlcs/synth/equiv.hpp"
#include "hlcs/synth/jit.hpp"
#include "hlcs/synth/parser.hpp"
#include "hlcs/synth/poly.hpp"
#include "hlcs/synth/rtl_sim.hpp"
#include "netlist_gen.hpp"
#include "objects.hpp"
#include "reference_sim.hpp"

namespace hlcs::synth {
namespace {

using namespace hlcs::sim::literals;

// ---------------------------------------------------------------------
// Scalar NetlistSim (native where the host compiles it) vs the reference
// ---------------------------------------------------------------------

void expect_same_nets(const Netlist& nl, const NetlistSim& sim,
                      const ReferenceSim& ref, const std::string& where) {
  for (NetId n = 0; n < nl.nets().size(); ++n) {
    ASSERT_EQ(sim.get(n), ref.get(n))
        << "net '" << nl.nets()[n].name << "' (" << where << ")";
  }
}

/// Drive a NetlistSim and the tree-walk reference in lock step with
/// identical stimulus and require bit identity on every net after every
/// settle and edge.
void drive_scalar_lockstep(const Netlist& nl, std::uint64_t seed,
                           int edges) {
  NetlistSim sim(nl);
  ReferenceSim ref(nl);
  sim::Xorshift rng(seed);
  for (int e = 0; e < edges; ++e) {
    for (NetId in : nl.inputs()) {
      if (rng.chance(1, 4)) continue;
      const std::uint64_t v = rng.chance(1, 4) ? ref.get(in) : rng.next();
      sim.set_input(in, v);
      ref.set_input(in, v);
    }
    if ((e & 3) == 0) {
      sim.settle();
      ref.settle();
      expect_same_nets(nl, sim, ref, "settle, edge " + std::to_string(e));
    }
    sim.clock_edge();
    ref.clock_edge();
    expect_same_nets(nl, sim, ref, "edge " + std::to_string(e));
  }
}

TEST(TapeJitScalar, RandomNetlistsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("netlist seed " + std::to_string(seed));
    Netlist nl = make_random_netlist(seed * 0x117C0DE + 3);
    drive_scalar_lockstep(nl, seed * 0x2F00D, 24);
  }
}

TEST(TapeJitScalar, RegistersResetAndLatchIdentically) {
  // Register-heavy synthesized object: init values, feedback, and the
  // two-phase latch must behave identically through reset_state(),
  // including a reset out of a state the stimulus moved away from init.
  const ObjectDesc d = testobj::counter();
  SynthOptions opt;
  opt.clients = 3;
  const Netlist nl = synthesize(d, opt);
  NetlistSim sim(nl);
  ReferenceSim ref(nl);
  expect_same_nets(nl, sim, ref, "after construction");
  sim::Xorshift rng(0x2E5E7);
  for (int e = 0; e < 12; ++e) {
    for (NetId in : nl.inputs()) {
      const std::uint64_t v = nl.nets()[in].name == "rst" ? 0 : rng.next();
      sim.set_input(in, v);
      ref.set_input(in, v);
    }
    sim.clock_edge();
    ref.clock_edge();
  }
  expect_same_nets(nl, sim, ref, "after 12 edges");
  sim.reset_state();
  ref.reset_state();
  expect_same_nets(nl, sim, ref, "after reset_state");
  drive_scalar_lockstep(nl, 0xC0117E4, 40);
}

TEST(TapeJitScalar, StatsReportCompilationAndDeopts) {
  if (!TapeJit::host_supported()) GTEST_SKIP() << "no JIT on this host";
  // The generator's op mix includes Mul/Shl/Shr, so across a handful of
  // seeds we must observe both native combs and per-opcode deopts, and
  // the counters must be consistent with the tape.
  bool saw_deopt = false, saw_native = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = make_random_netlist(seed * 0xDE0B7 + 1);
    NetlistSim sim(nl);
    const JitStats* js = sim.jit_stats();
    if (js == nullptr) continue;  // nothing compilable in this netlist
    EXPECT_TRUE(js->enabled);
    EXPECT_GT(js->compile_ns, 0u);
    EXPECT_GT(js->code_bytes, 0u);
    EXPECT_GT(js->stencils, 0u);
    EXPECT_EQ(js->combs_native + js->combs_deopt,
              sim.tape().combs().size());
    std::uint64_t attributed = 0;
    for (const auto& [name, hits] : js->deopt_hits()) {
      EXPECT_FALSE(name.empty());
      attributed += hits;
    }
    EXPECT_EQ(attributed, js->combs_deopt);
    if (js->combs_native > 0) saw_native = true;
    if (js->combs_deopt > 0) {
      saw_deopt = true;
      // Run a few edges: deopted combs are interpreted and counted.
      sim::Xorshift rng(seed);
      for (int e = 0; e < 4; ++e) {
        for (NetId in : nl.inputs()) sim.set_input(in, rng.next());
        sim.clock_edge();
      }
      EXPECT_GT(sim.jit_stats()->deopt_comb_evals, 0u);
    }
  }
  EXPECT_TRUE(saw_native);
  EXPECT_TRUE(saw_deopt);
}

TEST(TapeJitScalar, CrossPageEmissionStaysBitIdentical) {
  // A netlist big enough that the emitted code spans several pages:
  // many wide arithmetic combs chained together.  Exercises segment
  // layout and the mmap'd buffer end to end.
  NetlistGen g(0xB16C0DE);
  for (int i = 0; i < 6; ++i) {
    NetId n = g.nl.add_net("in" + std::to_string(i), 48);
    g.nl.mark_input(n);
    g.avail.push_back(n);
  }
  for (int i = 0; i < 400; ++i) {
    NetId n = g.nl.add_net("m" + std::to_string(i), 48);
    g.nl.add_comb(n, g.expr(48, 3));
    g.avail.push_back(n);
  }
  g.nl.validate_and_order();
  if (TapeJit::host_supported()) {
    NetlistSim sim(g.nl);
    const JitStats* js = sim.jit_stats();
    ASSERT_NE(js, nullptr);
    EXPECT_GT(js->code_bytes, 2u * 4096u) << "netlist too small to span pages";
  }
  drive_scalar_lockstep(g.nl, 0x9A6E5, 8);
}

TEST(TapeJitScalar, WriteXorExecuteRoundTrip) {
  // Many compile/run/destroy cycles: every TapeJit maps, protects and
  // unmaps its own executable pages; leaks or stale mappings show up
  // under the ASan leg of this suite.
  const Netlist nl = make_random_netlist(0x3E4C15E);
  const TapeProgram tape = TapeProgram::compile(nl);
  for (int i = 0; i < 64; ++i) {
    TapeJit jit(tape);
    if (!TapeJit::host_supported()) {
      EXPECT_FALSE(jit.available());
      continue;
    }
    if (!jit.available()) continue;
    std::vector<std::uint64_t> nets(nl.nets().size(), 0);
    std::vector<std::uint64_t> stack(
        std::max<std::uint32_t>(tape.max_stack(), 1), 0);
    std::vector<std::uint64_t> slots(
        std::max<std::uint32_t>(tape.max_slots(), 1), 0);
    NetlistStats stats;
    jit.run_full(nets.data(), stack.data(), slots.data(), &stats);
    EXPECT_EQ(stats.combs_evaluated, tape.combs().size());
  }
}

TEST(TapeJitScalar, RtlModuleRunsInJitMode) {
  // The kernel-integration wrapper runs native code wherever the host
  // compiles it, and publishes the pin values the reference computes
  // from the same sampled inputs.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 2;
  const Netlist nl = synthesize(d, opt);
  sim::Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  RtlModule rtl(k, "dut", nl, clk);
  EXPECT_EQ(rtl.netlist_sim().jit_stats() != nullptr,
            TapeJit::host_supported());
  ReferenceSim ref(nl);
  sim::Xorshift rng(0x4E7115);
  for (int e = 0; e < 32; ++e) {
    // Written now, sampled by the edge inside the next 10 ns.
    for (const std::string& pin : rtl.input_pins()) {
      const std::uint64_t v = pin == "rst" ? rng.chance(1, 8) : rng.next();
      rtl.in(pin).write(v);
      ref.set_input(pin, v);
    }
    k.run_for(10_ns);
    ref.clock_edge();
    for (const std::string& pin : rtl.output_pins()) {
      ASSERT_EQ(rtl.out(pin).read(), ref.get(pin))
          << "pin " << pin << ", edge " << e;
    }
  }
  EXPECT_EQ(rtl.edges(), 32u);
}

// ---------------------------------------------------------------------
// Batch JIT vs the batch interpreter and the scalar engine
// ---------------------------------------------------------------------

/// Drive a JIT-backed batch sim, an interpreted batch sim, and one
/// tree-walk reference per lane with identical stimulus; require
/// three-way bit identity on every net of every lane.
void drive_batch_jit_lockstep(const Netlist& nl, std::uint64_t seed,
                              int edges) {
  BatchNetlistSim jit(nl, 1, /*jit=*/true);
  BatchNetlistSim interp(nl, 1, /*jit=*/false);
  const std::size_t lanes = BatchNetlistSim::kLanes;
  std::vector<std::unique_ptr<ReferenceSim>> refs;
  std::vector<sim::Xorshift> rngs;
  refs.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    refs.push_back(std::make_unique<ReferenceSim>(nl));
    rngs.emplace_back(sim::lane_seed(seed, lane));
  }
  const std::vector<NetId>& ins = nl.inputs();

  auto expect_identical = [&](int edge, const char* phase) {
    for (NetId n = 0; n < nl.nets().size(); ++n) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        ASSERT_EQ(jit.get(n, lane), interp.get(n, lane))
            << "jit vs interp: net '" << nl.nets()[n].name << "' lane "
            << lane << " (" << phase << ", edge " << edge << ")";
        ASSERT_EQ(jit.get(n, lane), refs[lane]->get(n))
            << "jit vs scalar: net '" << nl.nets()[n].name << "' lane "
            << lane << " (" << phase << ", edge " << edge << ")";
      }
    }
  };

  for (int e = 0; e < edges; ++e) {
    for (NetId in : ins) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (rngs[lane].chance(1, 4)) continue;
        const std::uint64_t v = rngs[lane].chance(1, 4)
                                    ? refs[lane]->get(in)
                                    : rngs[lane].next();
        jit.set_input(in, lane, v);
        interp.set_input(in, lane, v);
        refs[lane]->set_input(in, v);
      }
    }
    if ((e & 3) == 0) {
      jit.settle();
      interp.settle();
      for (auto& r : refs) r->settle();
      expect_identical(e, "settle");
    }
    jit.clock_edge();
    interp.clock_edge();
    for (auto& r : refs) r->clock_edge();
    expect_identical(e, "edge");
  }
}

TEST(TapeJitBatch, SuperlaneParityMatrixOnRandomNetlists) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Netlist nl = make_random_netlist(0x7A6B17 + seed * 31 + 1);
    drive_batch_jit_lockstep(nl, seed * 0x5EED + 1, 8);
  }
}

TEST(TapeJitBatch, StatsAccountingMatchesInterpreter) {
  if (!BatchJit::host_supported()) GTEST_SKIP() << "no JIT on this host";
  // The per-settle BatchStats the JIT maintains must equal the
  // interpreter's exactly: same evaluation counts, same fused-op and
  // plane-instruction totals for whatever stayed interpreted.
  const Netlist nl = make_random_netlist(0xACC7);
  BatchNetlistSim jit(nl, 1, true);
  BatchNetlistSim interp(nl, 1, false);
  sim::Xorshift rng(0x57A75);
  for (int e = 0; e < 10; ++e) {
    for (NetId in : nl.inputs()) {
      const std::uint64_t v = rng.next();
      for (std::size_t lane = 0; lane < BatchNetlistSim::kLanes; ++lane) {
        jit.set_input(in, lane, v);
        interp.set_input(in, lane, v);
      }
    }
    jit.clock_edge();
    interp.clock_edge();
  }
  const BatchStats& a = jit.stats();
  const BatchStats& b = interp.stats();
  EXPECT_EQ(a.settles, b.settles);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.combs_evaluated, b.combs_evaluated);
  EXPECT_EQ(a.combs_scalar, b.combs_scalar);
  EXPECT_EQ(a.scalar_lane_evals, b.scalar_lane_evals);
  if (jit.jit_stats() != nullptr) {
    // Native combs don't execute plane instructions; whatever the
    // interpreter ran must be >= what the JIT left interpreted.
    EXPECT_LE(a.plane_instructions, b.plane_instructions);
    EXPECT_GT(jit.jit_stats()->native_calls, 0u);
  } else {
    EXPECT_EQ(a.plane_instructions, b.plane_instructions);
  }
}

// ---------------------------------------------------------------------
// Monitor automata (PR 4 property packs) under the JIT
// ---------------------------------------------------------------------

TEST(TapeJitMonitor, LoweredPropertyPacksBitIdentical) {
  for (int pack = 0; pack < 2; ++pack) {
    const check::Spec spec =
        pack == 0 ? check::pci_rules(check::PciRuleOptions{
                        .arbitration = true, .latency_bound = 16})
                  : check::shared_object_rules(/*starvation_bound=*/8);
    SCOPED_TRACE(pack == 0 ? "pci" : "shared_object");
    const check::Automaton a = check::compile(spec);
    const Netlist nl = check::lower(a);
    drive_scalar_lockstep(nl, 0x1107 + pack, 48);
    drive_batch_jit_lockstep(nl, 0x2207 + pack, 6);
  }
}

// ---------------------------------------------------------------------
// check_equivalence with the JIT backend
// ---------------------------------------------------------------------

void expect_same_result(const EquivResult& a, const EquivResult& b) {
  EXPECT_EQ(a.equal, b.equal);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.first_bad_lane, b.first_bad_lane);
  EXPECT_EQ(a.first_bad_seed, b.first_bad_seed);
  ASSERT_EQ(a.vectors.size(), b.vectors.size());
  for (std::size_t i = 0; i < a.vectors.size(); ++i) {
    const EquivVector& va = a.vectors[i];
    const EquivVector& vb = b.vectors[i];
    ASSERT_EQ(va.rst, vb.rst) << "vector " << i;
    ASSERT_EQ(va.grant, vb.grant) << "vector " << i;
    ASSERT_EQ(va.ret, vb.ret) << "vector " << i;
    ASSERT_EQ(va.vars, vb.vars) << "vector " << i;
  }
}

TEST(TapeJitEquiv, ShippedObjectsVerdictsBitIdentical) {
  // The shipped .obj surface: scalar backend, batch interpreter and
  // batch JIT must produce identical verdicts, grants and vectors,
  // with reset pulses in the stimulus.
  for (const char* file : {"mailbox.obj", "semaphore.obj", "counters.obj"}) {
    SCOPED_TRACE(file);
    std::ifstream in(std::string(HLCS_OBJS_DIR) + "/" + file);
    ASSERT_TRUE(in) << "cannot open shipped object " << file;
    std::stringstream ss;
    ss << in.rdbuf();
    std::vector<ObjectDesc> parsed = parse_objects(ss.str());
    ASSERT_FALSE(parsed.empty());
    ObjectDesc d = [&]() -> ObjectDesc {
      if (parsed.size() == 1) return std::move(parsed[0]);
      std::vector<const ObjectDesc*> impls;
      for (const ObjectDesc& o : parsed) impls.push_back(&o);
      return make_polymorphic(parsed[0].name() + "_poly", impls, 0);
    }();
    SynthOptions opt;
    opt.clients = 3;
    opt.policy = osss::PolicyKind::RoundRobin;
    EquivOptions scalar{.cycles = 120,
                        .seed = 0x71D,
                        .reset_percent = 4,
                        .lanes = 64};
    const EquivResult rs = check_equivalence(d, opt, scalar);
    EXPECT_TRUE(rs.equal) << rs.first_mismatch;
    EquivOptions interp = scalar;
    interp.batch = true;
    EquivOptions jit = interp;
    jit.jit = true;
    const EquivResult ri = check_equivalence(d, opt, interp);
    const EquivResult rj = check_equivalence(d, opt, jit);
    EXPECT_TRUE(ri.equal) << ri.first_mismatch;
    EXPECT_TRUE(rj.equal) << rj.first_mismatch;
    expect_same_result(rs, ri);
    expect_same_result(rs, rj);
    EXPECT_EQ(rj.jit_stats.enabled, BatchJit::host_supported());
    if (rj.jit_stats.enabled) {
      EXPECT_GT(rj.jit_stats.native_calls, 0u);
      EXPECT_GT(rj.jit_stats.code_bytes, 0u);
    }
  }
}

TEST(TapeJitEquiv, DeterministicAtAnyThreadCount) {
  // 130 lanes = three 64-lane blocks claimed in racy order; the JIT
  // backend must be invariant to who compiled and ran what.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 4;
  opt.policy = osss::PolicyKind::RoundRobin;
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<EquivResult> runs;
  for (unsigned threads : {1u, 2u, hw == 0 ? 4u : hw}) {
    EquivOptions eopt{.cycles = 100,
                      .seed = 0x7EAD1,
                      .reset_percent = 3,
                      .lanes = 130,
                      .batch = true,
                      .threads = threads,
                      .jit = true};
    runs.push_back(check_equivalence(d, opt, eopt));
  }
  for (const EquivResult& r : runs) {
    EXPECT_TRUE(r.equal) << r.first_mismatch;
    EXPECT_EQ(r.cycles, 100u * 130u);
  }
  expect_same_result(runs[0], runs[1]);
  expect_same_result(runs[0], runs[2]);
  // JIT compile counters accumulate per block, independent of threads.
  EXPECT_EQ(runs[0].jit_stats.combs_native, runs[1].jit_stats.combs_native);
  EXPECT_EQ(runs[0].jit_stats.combs_deopt, runs[2].jit_stats.combs_deopt);
  EXPECT_EQ(runs[0].jit_stats.native_calls, runs[1].jit_stats.native_calls);
}

}  // namespace
}  // namespace hlcs::synth
