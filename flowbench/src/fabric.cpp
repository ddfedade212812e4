// fabric: a 16-segment ring FabricSystem on 4 shard kernels, run in
// slices until every DMA channel and application has finished.  One
// worker thread by default: the shard windows, barriers and cross-shard
// links do the same work at any thread count, and on a shared host more
// threads measure the scheduler (flowbench/README.md).  Running
// to completion (not for a fixed span) keeps the idle bus clocks that
// follow the last message out of the measurement.  Gates: done, no DMA
// copy errors, no protocol violations, and state_digest() equal to the
// digest of a serial run (one kernel, one thread) made during set-up.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "hlcs/fabric/fabric.hpp"

namespace flowbench {
namespace {

using namespace hlcs;

constexpr std::size_t kSegments = 16;
constexpr std::size_t kShards = 4;
/// Application commands per master: enough that the masters stay busy
/// for most of the run (about 200 us simulated).
constexpr std::size_t kAppOps = 48;
constexpr sim::Time kSlice = sim::Time::us(5);
constexpr int kMaxSlices = 10000;  ///< 50 ms simulated

fabric::FabricConfig config(std::uint64_t seed, std::size_t shards,
                            unsigned threads) {
  fabric::FabricConfig cfg;
  cfg.topo = fabric::Topology::Ring;
  cfg.segments = kSegments;
  cfg.app_ops = kAppOps;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.threads = threads;
  return cfg;
}

/// Runs `sys` slice by slice until all_done(); returns false on a stall.
bool run_to_completion(fabric::FabricSystem& sys) {
  for (int i = 0; i < kMaxSlices && !sys.all_done(); ++i) sys.run_for(kSlice);
  return sys.all_done();
}

/// Commands carried by every DMA channel and application, and the
/// simulated time the last of them completed.
struct Traffic {
  std::size_t txns = 0;
  std::uint64_t end_ps = 0;
};

Traffic traffic(const fabric::FabricSystem& sys) {
  Traffic t;
  auto add = [&](const verify::Transcript& tr) {
    t.txns += tr.size();
    if (!tr.empty()) {
      t.end_ps = std::max(t.end_ps, tr.entries().back().completed.picos());
    }
  };
  for (std::size_t s = 0; s < sys.config().segments; ++s) {
    const fabric::Segment& seg = sys.segment(s);
    if (seg.dma) add(seg.dma->transcript());
    for (const auto& app : seg.apps) add(app->transcript());
  }
  return t;
}

class Fabric final : public Workload {
public:
  explicit Fabric(const Options& o) : o_(o), threads_(o.threads ? o.threads : 1) {}

  void setup() override {
    fabric::FabricSystem serial(config(o_.seed, 1, 1));
    if (!run_to_completion(serial)) {
      throw std::runtime_error("serial reference fabric did not finish");
    }
    expected_digest_ = serial.state_digest() ^ (o_.inject_fault ? 1 : 0);
  }

  JobResult job(std::uint64_t index, Ledger* l) override {
    JobResult r;
    const double t0 = wall_s();
    auto sys = std::make_unique<fabric::FabricSystem>(
        config(o_.seed, kShards, threads_));
    const double t1 = wall_s();
    const bool done = run_to_completion(*sys);
    const double t2 = wall_s();
    const std::size_t copy_errors = sys->copy_errors();
    const std::size_t violations = sys->violations();
    const std::uint64_t digest = sys->state_digest();
    const double t3 = wall_s();
    if (!done) {
      r.failure = "fabric did not finish";
    } else if (copy_errors != 0) {
      r.failure = std::to_string(copy_errors) + " DMA copy errors";
    } else if (violations != 0) {
      r.failure = std::to_string(violations) + " protocol violations";
    } else if (digest != expected_digest_) {
      r.failure = "state digest differs from the serial run";
    }

    sim::KernelStats ks;
    std::uint64_t msgs = 0, stalled = 0, busy_sum_ns = 0, busy_max_ns = 0;
    for (const sim::ShardStats& s : sys->engine().stats()) {
      ks.deltas += s.kernel.deltas;
      ks.resumes += s.kernel.resumes;
      ks.timed_actions += s.kernel.timed_actions;
      msgs += s.msgs_sent;
      stalled += s.stalled_windows;
      busy_sum_ns += s.busy_ns;
      busy_max_ns = std::max(busy_max_ns, s.busy_ns);
    }
    const std::uint64_t windows = sys->engine().windows_run();
    const auto [txns, end_ps] = traffic(*sys);
    if (index == 0) {
      fp_.count("sim_ps", end_ps);
      fp_.count("deltas", ks.deltas);
      fp_.count("resumes", ks.resumes);
      fp_.count("timed_actions", ks.timed_actions);
      fp_.count("shard_msgs", msgs);
      fp_.count("windows", windows);
      fp_.count("txns", txns);
      fp_.digest("state_digest", digest);
    }
    const double t4 = wall_s();
    sys.reset();
    const double t5 = wall_s();

    r.txns = static_cast<double>(txns);
    r.sim_us = static_cast<double>(end_ps) / 1e6;
    // Segment-cycles: every segment's 30 ns bus clock is one lane.
    r.lane_cycles = static_cast<double>(kSegments) *
                    static_cast<double>(end_ps) /
                    static_cast<double>(fabric::FabricConfig{}.clock_period.picos());
    if (l) {
      const double run_ms = (t2 - t1) * 1e3;
      last_run_ms_ = run_ms;
      l->span("fabric.build_ms", ((t1 - t0) + (t5 - t4)) * 1e3);
      l->span("fabric.run_ms", run_ms);
      l->span("fabric.check_ms", (t3 - t2) * 1e3);
      l->diag("sim.shard.busy_ms_max", static_cast<double>(busy_max_ns) / 1e6);
      l->diag("sim.shard.busy_ms_sum", static_cast<double>(busy_sum_ns) / 1e6);
      l->diag("sim.shard.wait_ms",
              run_ms - static_cast<double>(busy_max_ns) / 1e6);
      l->count("jobs", 1);
      l->count("txns", r.txns);
      l->count("kernel.deltas", ks.deltas);
      l->count("kernel.resumes", ks.resumes);
      l->count("kernel.timed_actions", ks.timed_actions);
      l->count("shard.windows", windows);
      l->count("shard.stalled", stalled);
      l->count("shard.msgs", msgs);
      l->count("shard.events", ks.timed_actions);
    }
    return r;
  }

  /// The same configuration on one kernel and one thread: the wall-time
  /// speedup the shards buy.
  std::string diagnose(Ledger& l) override {
    fabric::FabricSystem serial(config(o_.seed, 1, 1));
    const double t0 = wall_s();
    if (!run_to_completion(serial)) return "serial fabric did not finish";
    const double serial_ms = (wall_s() - t0) * 1e3;
    l.diag("sim.shard.speedup_wall", ratio(serial_ms, last_run_ms_));
    return {};
  }

  void per_layer(const Ledger& l, Metrics& m) const override {
    const double txns = l.total("txns");
    const double jobs = l.total("jobs");
    for (const char* name :
         {"fabric.build_ms", "fabric.run_ms", "fabric.check_ms",
          "sim.shard.busy_ms_max", "sim.shard.busy_ms_sum", "sim.shard.wait_ms",
          "sim.shard.speedup_wall"}) {
      m.push_back({name, l.median(name)});
    }
    m.push_back({"sim.kernel.deltas_per_txn", ratio(l.total("kernel.deltas"), txns)});
    m.push_back({"sim.kernel.resumes_per_txn",
                 ratio(l.total("kernel.resumes"), txns)});
    m.push_back({"sim.kernel.timed_actions_per_txn",
                 ratio(l.total("kernel.timed_actions"), txns)});
    m.push_back({"sim.shard.windows", ratio(l.total("shard.windows"), jobs)});
    m.push_back({"sim.shard.stalled_windows", ratio(l.total("shard.stalled"), jobs)});
    m.push_back({"sim.shard.msgs", ratio(l.total("shard.msgs"), jobs)});
    m.push_back({"sim.shard.events", ratio(l.total("shard.events"), jobs)});
  }

private:
  Options o_;
  unsigned threads_;
  std::uint64_t expected_digest_ = 0;
  double last_run_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fabric(const Options& o) {
  return std::make_unique<Fabric>(o);
}

}  // namespace flowbench
