// equiv: step-3 equivalence at scale over a fixed grid of cells.  Each
// cell parses a shipped tools/objs object (a file with several objects
// becomes one polymorphic object, as in hlcs_synth), synthesises it, and
// runs check_equivalence on the batch engine with the JIT, 64 lanes, one
// thread.  The grid covers every arbitration policy with 2 to 16
// clients, so golden-model cost varies against netlist size.
#include <fstream>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/synth/synth.hpp"

namespace flowbench {
namespace {

using namespace hlcs;

constexpr std::size_t kLanes = 64;
constexpr std::size_t kCycles = 150;

struct Cell {
  const char* object;  ///< file under tools/objs
  std::size_t clients;
  osss::PolicyKind policy;
};

constexpr Cell kGrid[] = {
    {"mailbox.obj", 4, osss::PolicyKind::RoundRobin},
    {"semaphore.obj", 8, osss::PolicyKind::Fifo},
    {"counters.obj", 16, osss::PolicyKind::Adaptive},
    {"mailbox.obj", 2, osss::PolicyKind::StaticPriority},
    {"semaphore.obj", 16, osss::PolicyKind::Random},
    {"counters.obj", 8, osss::PolicyKind::RoundRobin},
};
constexpr std::size_t kCells = std::size(kGrid);

synth::SynthOptions cell_options(const Cell& c) {
  synth::SynthOptions opt;
  opt.clients = c.clients;
  opt.policy = c.policy;
  return opt;
}

synth::ObjectDesc build_desc(const std::string& source) {
  std::vector<synth::ObjectDesc> parsed = synth::parse_objects(source);
  if (parsed.size() == 1) return std::move(parsed[0]);
  std::vector<const synth::ObjectDesc*> impls;
  for (const synth::ObjectDesc& d : parsed) impls.push_back(&d);
  return synth::make_polymorphic(parsed[0].name() + "_poly", impls, 0);
}

/// Replica of check_equivalence's per-lane stimulus (equiv.cpp LaneStim
/// under default EquivOptions: 50% request rate, re-roll after 5 blocked
/// cycles, no reset pulses), so the isolated layer replays drive exactly
/// the inputs the checked run saw.
struct LaneStim {
  sim::Xorshift rng{0};
  std::vector<synth::GoldenCycleModel::ClientIn> in;
  std::vector<unsigned> blocked;

  LaneStim(std::uint64_t seed, std::size_t clients)
      : rng(seed), in(clients), blocked(clients, 0) {}

  void advance(std::size_t n_methods) {
    const synth::EquivOptions d;
    for (std::size_t c = 0; c < in.size(); ++c) {
      if (!in[c].req) {
        if (rng.chance(d.request_percent, 100)) {
          in[c].req = true;
          in[c].sel = rng.below(n_methods);
          in[c].args = rng.next();
          blocked[c] = 0;
        }
      } else if (++blocked[c] > d.reroll_after) {
        in[c].sel = rng.below(n_methods);
        in[c].args = rng.next();
        blocked[c] = 0;
      }
    }
  }
  void react(const std::optional<std::size_t>& granted) {
    if (granted) {
      in[*granted].req = false;
      blocked[*granted] = 0;
    }
  }
};

/// One cell of the last traced job, kept for the isolated replays.
struct CellRun {
  std::optional<synth::ObjectDesc> desc;
  synth::SynthOptions opt;
  std::optional<synth::Netlist> nl;
  std::uint64_t seed = 0;
  std::size_t grants = 0;
};

/// Grants and lane 0's recorded grant and return stream of one cell's
/// check: what a job must reproduce exactly.
std::uint64_t grant_digest(const synth::EquivResult& eq) {
  std::uint64_t h = kFnvBasis;
  fnv_mix(h, eq.grants);
  fnv_mix(h, eq.cycles);
  for (const synth::EquivVector& v : eq.vectors) {
    for (std::size_t k = 0; k < v.grant.size(); ++k) {
      fnv_mix(h, v.grant[k] ? 1 + v.ret[k] : 0);
    }
  }
  return h;
}

class Equiv final : public Workload {
public:
  explicit Equiv(const Options& o) : o_(o) {}

  /// Reads the objects and checks every cell once: a bad input fails
  /// here, and each job's grants must match this run's grant digest.
  void setup() override {
    for (std::size_t c = 0; c < kCells; ++c) {
      const std::string path = o_.root + "/tools/objs/" + kGrid[c].object;
      std::ifstream in(path);
      if (!in) throw std::runtime_error("cannot open " + path);
      std::stringstream ss;
      ss << in.rdbuf();
      sources_.push_back(ss.str());
      const synth::EquivResult eq = check(build_desc(sources_.back()), c);
      if (!eq) throw std::runtime_error("set-up check failed: " + eq.first_mismatch);
      expected_.push_back(grant_digest(eq));
    }
    if (o_.inject_fault) expected_[0] ^= 1;
  }

  JobResult job(std::uint64_t index, Ledger* l) override {
    JobResult r;
    synth::BatchStats bs;
    synth::JitStats js;
    std::size_t combs = 0;
    std::uint64_t verdict_hash = kFnvBasis;
    if (l) {
      last_.clear();
      last_.resize(kCells);
    }
    for (std::size_t c = 0; c < kCells; ++c) {
      const synth::SynthOptions opt = cell_options(kGrid[c]);
      synth::ObjectDesc desc =
          timed(l, "synth.parse_ms", [&] { return build_desc(sources_[c]); });
      synth::Netlist nl = timed(l, "synth.synthesize_ms",
                                [&] { return synth::synthesize(desc, opt); });
      const synth::EquivResult eq =
          timed(l, "equiv.check_ms", [&] { return check(desc, c); });
      const std::string cell = std::string(kGrid[c].object) + " x" +
                               std::to_string(kGrid[c].clients) + ": ";
      if (r.failure.empty() && !eq) r.failure = cell + eq.first_mismatch;
      if (r.failure.empty() && grant_digest(eq) != expected_[c]) {
        r.failure = cell + "grants differ from the set-up check";
      }
      r.lane_cycles += static_cast<double>(eq.cycles);
      r.txns += static_cast<double>(eq.grants);
      bs += eq.batch_stats;
      js += eq.jit_stats;
      combs += nl.combs().size();
      fnv_mix(verdict_hash, grant_digest(eq));
      if (l) {
        last_[c] = CellRun{std::move(desc), opt, std::move(nl),
                           cell_seed(c), eq.grants};
      }
    }
    // Every lane-cycle is one 10 ns clock period of the checked object.
    r.sim_us = r.lane_cycles * 0.01;

    if (index == 0) {
      fp_.count("lane_cycles", static_cast<std::uint64_t>(r.lane_cycles));
      fp_.count("grants", static_cast<std::uint64_t>(r.txns));
      fp_.count("netlist_combs", combs);
      fp_.count("batch_plane_instructions", bs.plane_instructions);
      fp_.count("batch_settles", bs.settles);
      fp_.digest("grid_fnv", verdict_hash);
    }
    if (l) {
      l->diag("synth.jit.compile_ms", static_cast<double>(js.compile_ns) / 1e6);
      l->count("jobs", 1);
      l->count("lane_cycles", r.lane_cycles);
      l->count("grants", r.txns);
      l->count("netlist.combs", static_cast<double>(combs));
      l->count("batch.plane_instructions", bs.plane_instructions);
      l->count("batch.combs_evaluated", bs.combs_evaluated);
      l->count("batch.combs_scalar", bs.combs_scalar);
      l->count("jit.combs_native", js.combs_native);
      l->count("jit.combs_deopt", js.combs_deopt);
    }
    return r;
  }

  /// Drives the golden model and the batch engine alone on the stimulus
  /// each cell of the job just checked, with the same lanes and cycles.
  std::string diagnose(Ledger& l) override {
    double golden_ms = 0, scatter_ms = 0, eval_ms = 0;
    for (std::size_t c = 0; c < kCells; ++c) {
      const CellRun& run = last_[c];
      const synth::ObjectDesc& desc = *run.desc;
      const std::size_t clients = run.opt.clients;
      const std::size_t n_methods = desc.methods().size();

      // Record the stimulus and the golden grants (untimed).
      std::vector<std::vector<synth::GoldenCycleModel::ClientIn>> in(
          kCycles * kLanes);
      std::vector<std::optional<std::size_t>> granted(kCycles * kLanes);
      std::size_t grants = 0;
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        synth::GoldenCycleModel g(desc, run.opt);
        LaneStim stim(sim::lane_seed(run.seed, lane), clients);
        for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
          stim.advance(n_methods);
          in[cyc * kLanes + lane] = stim.in;
          const auto step = g.step(stim.in, false);
          granted[cyc * kLanes + lane] = step.granted;
          grants += step.granted ? 1 : 0;
          stim.react(step.granted);
        }
      }
      if (grants != run.grants) {
        return "stimulus replica diverged from check_equivalence on " +
               std::string(kGrid[c].object);
      }

      // Golden model alone.
      {
        std::vector<synth::GoldenCycleModel> goldens;
        goldens.reserve(kLanes);
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          goldens.emplace_back(desc, run.opt);
        }
        const double t0 = wall_s();
        for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
          for (std::size_t lane = 0; lane < kLanes; ++lane) {
            goldens[lane].step(in[cyc * kLanes + lane], false);
          }
        }
        golden_ms += (wall_s() - t0) * 1e3;
      }

      // Batch engine alone: port traffic and evaluation timed apart.
      const synth::Netlist& nl = *run.nl;
      synth::BatchNetlistSim rtl(nl, 1, true);
      const synth::NetId rst = nl.find("rst");
      std::vector<synth::NetId> req, sel, args, grant, ret, vars;
      for (std::size_t k = 0; k < clients; ++k) {
        req.push_back(nl.find(synth::req_port(k)));
        sel.push_back(nl.find(synth::sel_port(k)));
        args.push_back(nl.find(synth::args_port(k)));
        grant.push_back(nl.find(synth::grant_port(k)));
        ret.push_back(nl.find(synth::ret_port(k)));
      }
      for (std::size_t v = 0; v < desc.vars().size(); ++v) {
        vars.push_back(nl.find(synth::var_port(desc, v)));
      }
      std::uint64_t sink = 0;
      for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
        const double t0 = wall_s();
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          const auto& ci = in[cyc * kLanes + lane];
          for (std::size_t k = 0; k < clients; ++k) {
            rtl.set_input(req[k], lane, ci[k].req ? 1 : 0);
            rtl.set_input(sel[k], lane, ci[k].sel);
            rtl.set_input(args[k], lane, ci[k].args);
          }
          rtl.set_input(rst, lane, 0);
        }
        const double t1 = wall_s();
        rtl.settle();
        const double t2 = wall_s();
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          for (std::size_t k = 0; k < clients; ++k) {
            sink += rtl.get(grant[k], lane);
          }
          const auto& g = granted[cyc * kLanes + lane];
          if (g && desc.methods()[in[cyc * kLanes + lane][*g].sel].ret_width) {
            sink += rtl.get(ret[*g], lane);
          }
        }
        const double t3 = wall_s();
        rtl.clock_edge();
        const double t4 = wall_s();
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          for (synth::NetId v : vars) sink += rtl.get(v, lane);
        }
        const double t5 = wall_s();
        scatter_ms += ((t1 - t0) + (t3 - t2) + (t5 - t4)) * 1e3;
        eval_ms += ((t2 - t1) + (t4 - t3)) * 1e3;
      }
      sink_ += sink;
    }
    l.diag("synth.golden.ms", golden_ms);
    l.diag("synth.batch.scatter_ms", scatter_ms);
    l.diag("synth.batch.eval_ms", eval_ms);
    l.diag("equiv.rest_ms",
           l.current("equiv.check_ms") - golden_ms - scatter_ms - eval_ms);
    return {};
  }

  void per_layer(const Ledger& l, Metrics& m) const override {
    for (const char* name :
         {"synth.parse_ms", "synth.synthesize_ms", "equiv.check_ms",
          "synth.golden.ms", "synth.batch.scatter_ms", "synth.batch.eval_ms",
          "equiv.rest_ms", "synth.jit.compile_ms"}) {
      m.push_back({name, l.median(name)});
    }
    const double lc = l.total("lane_cycles");
    m.push_back({"synth.netlist_combs",
                 ratio(l.total("netlist.combs"), l.total("jobs"))});
    m.push_back({"synth.batch.plane_insns_per_lane_cycle",
                 ratio(l.total("batch.plane_instructions"), lc)});
    m.push_back({"synth.batch.scalar_frac",
                 ratio(l.total("batch.combs_scalar"),
                       l.total("batch.combs_evaluated"))});
    m.push_back({"synth.jit.deopt_frac",
                 ratio(l.total("jit.combs_deopt"),
                       l.total("jit.combs_native") + l.total("jit.combs_deopt"))});
    m.push_back({"equiv.grant_ratio", ratio(l.total("grants"), lc)});
  }

private:
  std::uint64_t cell_seed(std::size_t c) const { return sim::lane_seed(o_.seed, c); }

  synth::EquivResult check(const synth::ObjectDesc& desc, std::size_t c) const {
    return synth::check_equivalence(desc, cell_options(kGrid[c]),
                                    synth::EquivOptions{.cycles = kCycles,
                                                        .seed = cell_seed(c),
                                                        .lanes = kLanes,
                                                        .batch = true,
                                                        .threads = 1,
                                                        .superlanes = 1,
                                                        .jit = true});
  }

  Options o_;
  std::vector<std::string> sources_;
  std::vector<std::uint64_t> expected_;  ///< grant digest per cell
  std::vector<CellRun> last_;
  std::uint64_t sink_ = 0;  ///< keeps the isolated replays' reads live
};

}  // namespace

std::unique_ptr<Workload> make_equiv(const Options& o) {
  return std::make_unique<Equiv>(o);
}

}  // namespace flowbench
