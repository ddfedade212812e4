// Batch engine: 64-lane bit-identity against the scalar engine.
//
// The contract under test is absolute: a BatchNetlistSim lane must be
// indistinguishable, net for net and cycle for cycle, from a scalar
// NetlistSim driven with the same stimulus, and from the tree-walk
// reference (reference_sim.hpp) -- across random netlists (including
// word arithmetic, which takes the per-lane scalar fallback),
// synthesized objects with reset
// pulses and register feedback, and any worker thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/batch_tape.hpp"
#include "hlcs/synth/equiv.hpp"
#include "hlcs/synth/parser.hpp"
#include "hlcs/synth/poly.hpp"
#include "hlcs/synth/rtl_sim.hpp"
#include "netlist_gen.hpp"
#include "objects.hpp"
#include "reference_sim.hpp"

namespace hlcs::synth {
namespace {

constexpr std::size_t kLanes = BatchNetlistSim::kLanes;

/// Drive the batch sim and one scalar `Ref` (NetlistSim or
/// ReferenceSim) per lane with identical per-lane random stimulus and
/// require bit identity on every net of every lane after every settle
/// and edge: batch lane L equals the scalar sim seeded for lane L.
template <class Ref>
void drive_batch_lockstep(const Netlist& nl, std::uint64_t seed, int edges) {
  BatchNetlistSim batch(nl);
  const std::size_t lanes = kLanes;
  std::vector<std::unique_ptr<Ref>> refs;
  std::vector<sim::Xorshift> rngs;
  refs.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    refs.push_back(std::make_unique<Ref>(nl));
    rngs.emplace_back(sim::lane_seed(seed, lane));
  }
  const std::vector<NetId>& ins = nl.inputs();

  auto expect_identical = [&](int edge, const char* phase) {
    for (NetId n = 0; n < nl.nets().size(); ++n) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        ASSERT_EQ(batch.get(n, lane), refs[lane]->get(n))
            << "net '" << nl.nets()[n].name << "' lane " << lane << " ("
            << phase << ", edge " << edge << ")";
      }
    }
  };

  for (int e = 0; e < edges; ++e) {
    for (NetId in : ins) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        // Mirror the scalar suite's stimulus shape: sometimes skip the
        // input, sometimes rewrite the current value.
        if (rngs[lane].chance(1, 4)) continue;
        const std::uint64_t v = rngs[lane].chance(1, 4)
                                    ? refs[lane]->get(in)
                                    : rngs[lane].next();
        batch.set_input(in, lane, v);
        refs[lane]->set_input(in, v);
      }
    }
    if ((e & 3) == 0) {
      batch.settle();
      for (auto& r : refs) r->settle();
      expect_identical(e, "settle");
    }
    batch.clock_edge();
    for (auto& r : refs) r->clock_edge();
    expect_identical(e, "edge");
  }
}

TEST(BatchSim, RandomNetlistsMatchScalarOnAllLanes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("netlist seed " + std::to_string(seed));
    Netlist nl = make_random_netlist(seed * 0xB17C0DE + 5);
    drive_batch_lockstep<NetlistSim>(nl, seed * 0x51357, 24);
  }
}

TEST(BatchSim, AgreesWithTheReferenceSim) {
  Netlist nl = make_random_netlist(0xD15EA5E);
  drive_batch_lockstep<ReferenceSim>(nl, 0xCAFE, 16);
}

TEST(BatchSim, ParityWithScalarAndReference) {
  // Parity over a randomized netlist: every lane must match its own
  // scalar NetlistSim and its own tree-walk reference.  The generator
  // mixes word arithmetic in, so the scalar fallback
  // (gather/exec/scatter over the 64 lanes) is exercised too, not just
  // the row loops.
  Netlist nl = make_random_netlist(0x5AFE + 1);
  drive_batch_lockstep<NetlistSim>(nl, 0x9E3779B9, 10);
  drive_batch_lockstep<ReferenceSim>(nl, 0x9E3779B9, 10);
}

TEST(BatchSim, FusionCountersAreObservableAndConsistent) {
  // Synthesized arbitration logic is what the fusion pass targets: the
  // priority chains (and-not), compare-feeds-mux selectors and CSE slot
  // stores must actually hit, and the dynamic counter must be the
  // static per-settle count times the number of settles.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 3;
  const Netlist nl = synthesize(d, opt);
  BatchNetlistSim sim(nl);
  const BatchTape& bt = sim.tape();
  EXPECT_GT(bt.fused_insns(), 0u);
  std::uint64_t hits_total = 0, and_not_family = 0;
  for (const auto& [name, hits] : bt.fusion_hits()) {
    hits_total += hits;
    if (name == "and_not" || name == "and_not_net") and_not_family += hits;
  }
  EXPECT_EQ(hits_total, bt.fused_insns());
  EXPECT_GT(and_not_family, 0u) << "priority chains should fuse";

  sim.reset_stats();
  sim.clock_edge();  // settles twice
  EXPECT_EQ(sim.stats().fused_ops, 2 * bt.fused_insns());
  EXPECT_EQ(sim.stats().scalar_ops, 0u) << "mailbox is fully bit-parallel";
  EXPECT_EQ(sim.stats().combs_scalar, 0u);
}

TEST(BatchSim, RandomSuiteExercisesBothEvaluationPaths) {
  // The generator emits word arithmetic alongside bitwise logic, so
  // across a handful of seeds the classification must see both kinds;
  // otherwise the fallback (or the bit-parallel path) is dead code and
  // the suite above proves less than it claims.
  std::uint64_t parallel = 0, scalar = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = make_random_netlist(seed * 0xB17C0DE + 5);
    BatchNetlistSim s(nl);
    parallel += s.stats().combs_bit_parallel;
    scalar += s.stats().combs_scalar;
    EXPECT_EQ(s.stats().combs_evaluated,
              s.stats().combs_bit_parallel + s.stats().combs_scalar);
  }
  EXPECT_GT(parallel, 0u);
  EXPECT_GT(scalar, 0u);
}

TEST(BatchSim, Width64Boundary) {
  // Full-width planes: every per-op loop runs to exactly 64 rows, where
  // an off-by-one in plane counts or lane masks would show.
  Netlist nl("wide");
  const NetId a = nl.add_net("a", 64);
  const NetId b = nl.add_net("b", 64);
  const NetId s = nl.add_net("s", 1);
  nl.mark_input(a);
  nl.mark_input(b);
  nl.mark_input(s);
  auto& A = nl.arena();
  const NetId x = nl.add_net("x", 64);
  nl.add_comb(x, A.bin(ExprOp::Xor, nl.net_ref(a), nl.net_ref(b)));
  const NetId m = nl.add_net("m", 64);
  nl.add_comb(m, A.mux(nl.net_ref(s), nl.net_ref(x),
                       A.un(ExprOp::Not, nl.net_ref(a))));
  const NetId r = nl.add_net("r", 1);
  nl.add_comb(r, A.un(ExprOp::RedAnd, nl.net_ref(m)));
  const NetId cat = nl.add_net("cat", 64);
  nl.add_comb(cat, A.bin(ExprOp::Concat, A.slice(nl.net_ref(m), 0, 32),
                         A.slice(nl.net_ref(x), 32, 32)));
  nl.mark_output(m);
  nl.mark_output(r);
  nl.mark_output(cat);
  nl.validate_and_order();
  drive_batch_lockstep<NetlistSim>(nl, 0x64646464, 20);
}

// ---------------------------------------------------------------------
// check_equivalence: batch backend vs scalar backend
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
    ASSERT_EQ(va.in.size(), vb.in.size()) << "vector " << i;
    for (std::size_t c = 0; c < va.in.size(); ++c) {
      ASSERT_EQ(va.in[c].req, vb.in[c].req) << "vector " << i;
      ASSERT_EQ(va.in[c].sel, vb.in[c].sel) << "vector " << i;
      ASSERT_EQ(va.in[c].args, vb.in[c].args) << "vector " << i;
    }
  }
}

TEST(BatchEquiv, VerdictsBitIdenticalToScalarBackend) {
  for (int which = 0; which < 4; ++which) {
    ObjectDesc d = which == 0   ? testobj::bistable()
                   : which == 1 ? testobj::counter()
                   : which == 2 ? testobj::mailbox()
                                : testobj::swapper();
    SCOPED_TRACE(d.name());
    SynthOptions opt;
    opt.clients = 3;
    opt.policy = which % 2 == 0 ? osss::PolicyKind::StaticPriority
                                : osss::PolicyKind::Fifo;
    EquivOptions scalar{.cycles = 150,
                        .seed = 0xBA7C4 + static_cast<std::uint64_t>(which),
                        .reset_percent = 4,
                        .lanes = 64};
    EquivOptions batch = scalar;
    batch.batch = true;
    const EquivResult rs = check_equivalence(d, opt, scalar);
    const EquivResult rb = check_equivalence(d, opt, batch);
    EXPECT_TRUE(rs.equal) << rs.first_mismatch;
    EXPECT_TRUE(rb.equal) << rb.first_mismatch;
    EXPECT_GT(rb.grants, 0u);
    EXPECT_EQ(rb.cycles, 150u * 64u);
    expect_same_result(rs, rb);
  }
}

TEST(BatchEquiv, ShippedObjectsBitIdenticalScalarVsBatch) {
  // The CLI objects under tools/objs/ are the shipped surface of the
  // flow; the batch backend must reproduce the scalar verdict on each
  // of them exactly (counters.obj carries several implementations and
  // goes through the same polymorphic flattening as hlcs_synth).
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
    for (osss::PolicyKind policy :
         {osss::PolicyKind::StaticPriority, osss::PolicyKind::RoundRobin}) {
      SCOPED_TRACE(osss::policy_name(policy));
      SynthOptions opt;
      opt.clients = 3;
      opt.policy = policy;
      EquivOptions scalar{.cycles = 150,
                          .seed = 0x0B15C0 + static_cast<std::uint64_t>(policy),
                          .reset_percent = 4,
                          .lanes = 64};
      EquivOptions batch = scalar;
      batch.batch = true;
      const EquivResult rs = check_equivalence(d, opt, scalar);
      const EquivResult rb = check_equivalence(d, opt, batch);
      EXPECT_TRUE(rs.equal) << rs.first_mismatch;
      EXPECT_TRUE(rb.equal) << rb.first_mismatch;
      EXPECT_GT(rb.grants, 0u);
      expect_same_result(rs, rb);
    }
  }
}

TEST(BatchEquiv, DeterministicAtAnyThreadCount) {
  // 130 lanes = three blocks (64 + 64 + 2), claimed in racy order by
  // the pool; results must not depend on who ran what.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 4;
  opt.policy = osss::PolicyKind::RoundRobin;
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<EquivResult> runs;
  for (unsigned threads : {1u, 2u, hw == 0 ? 4u : hw}) {
    EquivOptions eopt{.cycles = 120,
                      .seed = 0x7EAD,
                      .reset_percent = 3,
                      .lanes = 130,
                      .batch = true,
                      .threads = threads};
    runs.push_back(check_equivalence(d, opt, eopt));
  }
  for (const EquivResult& r : runs) {
    EXPECT_TRUE(r.equal) << r.first_mismatch;
    EXPECT_EQ(r.cycles, 120u * 130u);
  }
  expect_same_result(runs[0], runs[1]);
  expect_same_result(runs[0], runs[2]);
}

TEST(BatchEquiv, SuperlaneParityMatrixOnShippedObjects) {
  // Randomized thread-count matrix over the shipped .obj surface
  // (counters.obj goes through polymorphic flattening): every batch
  // configuration must reproduce the scalar backend's verdict, grants,
  // vectors and counters exactly, with reset pulses in the stimulus.
  sim::Xorshift rng(0x5C277);
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
    opt.clients = 2;
    opt.policy = osss::PolicyKind::RoundRobin;
    // A lane count that is no multiple of the block width, re-rolled
    // per object so the matrix drifts across runs of the suite's seeds.
    const std::size_t lanes = 65 + rng.below(140);
    EquivOptions scalar{.cycles = 60,
                        .seed = rng.next(),
                        .reset_percent = 4,
                        .lanes = lanes};
    const EquivResult rs = check_equivalence(d, opt, scalar);
    EXPECT_TRUE(rs.equal) << rs.first_mismatch;
    for (unsigned threads : {1u, 3u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " lanes " +
                   std::to_string(lanes));
      EquivOptions batch = scalar;
      batch.batch = true;
      batch.threads = threads;
      const EquivResult rb = check_equivalence(d, opt, batch);
      EXPECT_TRUE(rb.equal) << rb.first_mismatch;
      expect_same_result(rs, rb);
      EXPECT_GT(rb.batch_stats.combs_evaluated, 0u);
      EXPECT_DOUBLE_EQ(rb.batch_scalar_fraction,
                       rb.batch_stats.scalar_fraction());
    }
  }
}

TEST(BatchEquiv, ScalarMultiLaneMatchesBatchAndSingleLaneReplay) {
  const ObjectDesc d = testobj::counter();
  SynthOptions opt;
  opt.clients = 2;
  opt.policy = osss::PolicyKind::StaticPriority;
  EquivOptions multi{.cycles = 100, .seed = 0x1DEA, .lanes = 5};
  const EquivResult rm = check_equivalence(d, opt, multi);
  EXPECT_TRUE(rm.equal) << rm.first_mismatch;
  EXPECT_EQ(rm.cycles, 500u);

  // The recorded vectors are lane 0's stream, which a plain single-lane
  // run with the same root seed reproduces exactly.
  EquivOptions one{.cycles = 100, .seed = 0x1DEA};
  const EquivResult r1 = check_equivalence(d, opt, one);
  ASSERT_EQ(r1.vectors.size(), rm.vectors.size());
  for (std::size_t i = 0; i < r1.vectors.size(); ++i) {
    ASSERT_EQ(r1.vectors[i].rst, rm.vectors[i].rst) << "vector " << i;
    ASSERT_EQ(r1.vectors[i].grant, rm.vectors[i].grant) << "vector " << i;
    ASSERT_EQ(r1.vectors[i].vars, rm.vectors[i].vars) << "vector " << i;
  }

  EquivOptions batch = multi;
  batch.batch = true;
  const EquivResult rb = check_equivalence(d, opt, batch);
  expect_same_result(rm, rb);
}

TEST(BatchEquiv, OnlyTheSingleRowWidthIsAccepted) {
  // The superlane factor survives only as a compatibility parameter:
  // 1 is the one row width, anything else is refused up front.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 2;
  const Netlist nl = synthesize(d, opt);
  EXPECT_NO_THROW(BatchNetlistSim(nl, 1));
  EXPECT_THROW(BatchNetlistSim(nl, 4), Error);
  EquivOptions eopt{.cycles = 10, .lanes = 64, .batch = true,
                    .superlanes = 8};
  try {
    check_equivalence(d, opt, eopt);
    FAIL() << "expected superlanes = 8 to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("superlanes = 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(LaneSeeds, StableAndDistinct) {
  // The derivation is part of the reproducibility contract: a logged
  // lane seed from an old failure must mean the same stream forever.
  EXPECT_EQ(sim::lane_seed(0, 0), sim::splitmix64(0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t lane = 0; lane < 128; ++lane) {
    seeds.push_back(sim::lane_seed(0xEC1, lane));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

}  // namespace
}  // namespace hlcs::synth
