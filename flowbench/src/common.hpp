// Shared harness of the flow benchmark: the closed-loop job contract
// every workload implements, the per-layer ledger a traced run fills
// from outside the library (spans around public calls plus the stats
// structs the modules already expose), and small helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hlcs/verify/transcript.hpp"

namespace flowbench {

/// Host wall-clock seconds (steady clock).
double wall_s();
/// Process CPU seconds, all threads.
double cpu_s();

/// Command-line options of one workload process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fabric worker threads; the default (0) is one.
  unsigned threads = 0;
  /// Corrupt one reference (transcript, VCD or digest) during set-up, so
  /// every job's gate must fail.  Used by the benchmark's own test.
  bool inject_fault = false;
  /// Checkout root: tools/objs inputs are read from here.
  std::string root = ".";
  /// Directory for the waveform dumps (inside the build tree).
  std::string scratch = ".";
};

/// Per-layer ledger of a traced run.  Spans are host milliseconds
/// measured around calls into one layer during a job; their sum over a
/// job is compared with the job's wall time (span coverage).  Diagnostic
/// values are milliseconds measured outside the job's wall time (isolated
/// replays) or inside another span; they do not count toward coverage.
/// Both are reported as the median over traced jobs.  Counts are summed
/// over traced jobs and turned into ratios by the workload.
class Ledger {
public:
  void begin_job() {
    job_.clear();
    covered_ms_ = 0;
  }
  void span(const std::string& name, double ms) {
    job_[name] += ms;
    covered_ms_ += ms;
  }
  void diag(const std::string& name, double ms) { job_[name] += ms; }
  void count(const std::string& name, double v) { totals_[name] += v; }
  void end_job(double job_ms) {
    for (const auto& [name, ms] : job_) series_[name].push_back(ms);
    coverage_.push_back(job_ms > 0 ? covered_ms_ / job_ms : 0);
    job_.clear();
  }
  /// Value recorded for `name` so far in the current job.
  double current(const std::string& name) const {
    auto it = job_.find(name);
    return it == job_.end() ? 0 : it->second;
  }

  double median(const std::string& name) const;
  double total(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second;
  }
  double coverage() const;

private:
  std::map<std::string, double> job_;
  double covered_ms_ = 0;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> totals_;
  std::vector<double> coverage_;
};

/// Run `f`, adding its host time to `ledger` as span `name` when tracing.
template <class F>
decltype(auto) timed(Ledger* ledger, const char* name, F&& f) {
  if (!ledger) return f();
  struct Stop {
    Ledger* l;
    const char* n;
    double t0;
    ~Stop() { l->span(n, (wall_s() - t0) * 1e3); }
  } stop{ledger, name, wall_s()};
  return f();
}

/// Deterministic simulated statistics and digests of one job.  A change
/// that only speeds up the simulator must leave every entry unchanged.
struct Fingerprint {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  void count(std::string k, std::uint64_t v) {
    counts.emplace_back(std::move(k), v);
  }
  void digest(std::string k, std::uint64_t v) {
    digests.emplace_back(std::move(k), v);
  }
  std::string json() const;
};

/// Outcome of one closed-loop job.
struct JobResult {
  std::string failure;  ///< first failed gate; empty when all passed
  double txns = 0;         ///< transactions carried through the job
  double lane_cycles = 0;  ///< lanes x clock cycles simulated or verified
  double sim_us = 0;       ///< simulated microseconds covered
};

struct Metric {
  std::string name;
  double value = 0;
};
using Metrics = std::vector<Metric>;

class Workload {
public:
  virtual ~Workload() = default;
  /// Generate every input from the seed and compute the references the
  /// job gates compare against.  Timed as setup_s.
  virtual void setup() = 0;
  /// One job of the closed loop: run the flow, then check its gates.
  /// `ledger` is null in untraced jobs.  Job 0 fills fingerprint().
  virtual JobResult job(std::uint64_t index, Ledger* ledger) = 0;
  /// Traced runs only, after the job's wall time was taken: isolated
  /// replays that split a span into layers.  Returns a failure or "".
  virtual std::string diagnose(Ledger&) { return {}; }
  /// Per-layer metrics from the ledger of the traced jobs.
  virtual void per_layer(const Ledger& l, Metrics& out) const = 0;

  const Fingerprint& fingerprint() const { return fp_; }

protected:
  Fingerprint fp_;
};

std::unique_ptr<Workload> make_ladder(const Options& o);
std::unique_ptr<Workload> make_equiv(const Options& o);
std::unique_ptr<Workload> make_lt(const Options& o);
std::unique_ptr<Workload> make_fabric(const Options& o);

// --- helpers ---------------------------------------------------------

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv_bytes(const std::string& s);
/// FNV-1a over every field of every entry, timestamps included.
std::uint64_t fnv_transcript(const hlcs::verify::Transcript& t);

}  // namespace flowbench
