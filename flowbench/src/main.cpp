// flowbench -- one workload of the flow benchmark, run as a closed loop
// of jobs from a single driver thread.
//
//   flowbench --workload ladder|equiv|lt|fabric --seed N --seconds S
//             --trace 0|1 [--threads N] [--inject-fault]
//             [--root DIR] [--scratch DIR] [--commit SHA]
//
// One set-up precedes the loop, in which jobs run back to back until S
// seconds have passed (at least kMinJobs); thirty more set-ups of fresh
// instances, each in a forked child, are spread over the run, and the
// median of all of them is setup_s.  Each job is checked by the library's
// own consistency gates before the next one starts.  The driver thread
// moves to the next CPU every 0.1 s.  --trace 0 measures
// the end-to-end metrics; --trace 1 alternates untraced and traced jobs
// and measures the per-layer metrics (traced jobs only) plus the tracing
// overhead.
//
// Output: one "record" JSON line (host fingerprint, simulated-statistics
// fingerprint, job count, failed_frac, fastest and tail job time) followed
// by the result line {"correct", "attempted", "failed", "metrics"}, whose
// metrics map each measured name to its value; flowbench/run.py attaches
// the units from BENCHMARK.json.  Exit status is 0 only when every job
// passed every gate.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "hlcs/synth/jit.hpp"

namespace flowbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double Ledger::median(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? 0 : median_of(it->second);
}

double Ledger::coverage() const { return median_of(coverage_); }

std::uint64_t fnv_bytes(const std::string& s) {
  std::uint64_t h = kFnvBasis;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv_transcript(const hlcs::verify::Transcript& t) {
  std::uint64_t h = kFnvBasis;
  for (const hlcs::verify::TranscriptEntry& e : t.entries()) {
    fnv_mix(h, e.id);
    fnv_mix(h, static_cast<std::uint64_t>(e.op));
    fnv_mix(h, e.addr);
    fnv_mix(h, static_cast<std::uint64_t>(e.status));
    fnv_mix(h, e.data.size());
    for (std::uint32_t w : e.data) fnv_mix(h, w);
    fnv_mix(h, e.issued.picos());
    fnv_mix(h, e.completed.picos());
  }
  return h;
}

std::string Fingerprint::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : counts) {
    out += (first ? "" : ", ") + json_string(k) + ": " + std::to_string(v);
    first = false;
  }
  for (const auto& [k, v] : digests) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    out += (first ? "" : ", ") + json_string(k) + ": " + json_string(buf);
    first = false;
  }
  return out + "}";
}

namespace {

/// Set-ups per run.  Back to back they would sample one instant of the
/// host's load, and a short set-up then reads 40% apart between runs;
/// spread over the run, their median follows the run as a whole.  A
/// set-up's time follows the host's load of the moment, which swings by a
/// third within a run, so the median needs many samples.
constexpr std::size_t kSetups = 31;
constexpr std::size_t kMinJobs = 24;
/// Seconds the driver thread stays on one CPU (see run()).
constexpr double kCpuDwell = 0.1;

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "flowbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv, std::string& commit) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(opt + " needs a value");
      return argv[++i];
    };
    auto number = [&](const std::string& v) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(d >= 0)) {
        usage_error("bad value '" + v + "' for " + opt);
      }
      return d;
    };
    if (opt == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (opt == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 0);
      if (v.empty() || *end != '\0') usage_error("bad seed '" + v + "'");
    } else if (opt == "--seconds") {
      o.seconds = number(value());
    } else if (opt == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (opt == "--threads") {
      o.threads = static_cast<unsigned>(number(value()));
    } else if (opt == "--inject-fault") {
      o.inject_fault = true;
    } else if (opt == "--root") {
      o.root = value();
    } else if (opt == "--scratch") {
      o.scratch = value();
    } else if (opt == "--commit") {
      commit = value();
    } else {
      usage_error("unknown option '" + opt + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "ladder") return make_ladder(o);
  if (o.workload == "equiv") return make_equiv(o);
  if (o.workload == "lt") return make_lt(o);
  if (o.workload == "fabric") return make_fabric(o);
  usage_error("unknown workload '" + o.workload + "'");
}

/// CPU model and mean current MHz from /proc/cpuinfo ("unknown"/0 when
/// the file is absent).
std::pair<std::string, double> cpu_model_mhz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown";
  double mhz_sum = 0;
  int mhz_n = 0;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
      key.pop_back();
    }
    std::string val = line.substr(colon + 1);
    if (!val.empty() && val.front() == ' ') val.erase(0, 1);
    if (key == "model name" && model == "unknown") model = val;
    if (key == "cpu MHz") {
      mhz_sum += std::strtod(val.c_str(), nullptr);
      ++mhz_n;
    }
  }
  return {model, mhz_n ? mhz_sum / mhz_n : 0.0};
}

std::string host_json(const std::string& commit) {
  const auto [model, mhz] = cpu_model_mhz();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(model)
     << ", \"cpu_mhz\": " << json_number(mhz)
     << ", \"compiler\": " << json_string(FLOWBENCH_COMPILER)
     << ", \"build_type\": " << json_string(FLOWBENCH_BUILD_TYPE)
     << ", \"hlcs_jit\": " << (FLOWBENCH_HLCS_JIT ? "true" : "false")
     << ", \"jit_host_supported\": "
     << (hlcs::synth::TapeJit::host_supported() ? "true" : "false")
     << ", \"commit\": " << json_string(commit) << "}";
  return os.str();
}

/// Highest integer percentile of `v` with at least 10 samples strictly
/// above it (nearest-rank), and its value.  {0, max} when fewer than 11
/// samples exist.
std::pair<int, double> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = 99; p >= 1; --p) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    const double value = v[rank == 0 ? 0 : rank - 1];
    const auto beyond = static_cast<std::size_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), value));
    if (beyond >= 10) return {p, value};
  }
  return {0, v.empty() ? 0 : v.back()};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Host seconds of one set-up of a fresh instance, taken in a forked
/// child so that the sample shares neither memory (peak_rss_mb) nor files
/// with the instance that runs the jobs: the child writes into its own
/// scratch directory.
double setup_in_child(const Options& o) {
  Options child = o;
  child.scratch = o.scratch + "/setup";
  std::filesystem::create_directories(child.scratch);
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fd[0]);
    double secs = -1;
    try {
      const double t0 = wall_s();
      const std::unique_ptr<Workload> inst = make_workload(child);
      inst->setup();
      secs = wall_s() - t0;
    } catch (...) {
    }
    const bool sent = write(fd[1], &secs, sizeof secs) == sizeof secs;
    _exit(sent && secs >= 0 ? 0 : 1);
  }
  close(fd[1]);
  double secs = -1;
  const bool got = read(fd[0], &secs, sizeof secs) == sizeof secs;
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up in a child process failed");
  }
  return secs;
}

/// CPUs the process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Moves the calling thread to `cpu`; if the host refuses, it stays.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

int run(const Options& o, const std::string& commit) {
  // --- set-up; this instance runs the jobs -------------------------
  std::vector<double> setup_times;
  const double t_setup = wall_s();
  const std::unique_ptr<Workload> w = make_workload(o);
  w->setup();
  setup_times.push_back(wall_s() - t_setup);

  // --- closed loop of jobs -----------------------------------------
  Ledger ledger;
  std::vector<double> job_ms, cpu_ms, traced_ms;
  std::vector<double> txns, lane_cycles, sim_us;
  std::size_t attempted = 0, failed = 0;
  std::string first_failure;
  // Each CPU of a shared host has its own neighbours, whose load rises
  // and falls independently of the other CPUs'.  Left alone, the driver
  // thread stays on one CPU for the whole run, and the run measures that
  // CPU's neighbours.  Moving it to the next CPU every kCpuDwell seconds
  // makes every run sample all of them alike.  Not with extra fabric
  // worker threads, which would inherit the pin and share one CPU.
  const std::vector<int> cpus =
      o.threads > 1 ? std::vector<int>{} : allowed_cpus();
  std::size_t cpu_turn = 0;
  double cpu_since = -kCpuDwell;
  const double t_start = wall_s();
  for (std::uint64_t idx = 0;
       wall_s() - t_start < o.seconds || attempted < kMinJobs; ++idx) {
    if (setup_times.size() < kSetups &&
        wall_s() - t_start >= o.seconds * static_cast<double>(setup_times.size()) /
                                  static_cast<double>(kSetups)) {
      setup_times.push_back(setup_in_child(o));
    }
    // Traced runs alternate: even jobs traced, odd jobs untraced, so
    // trace.overhead compares medians taken under the same host drift.
    const bool traced = o.trace && idx % 2 == 0;
    if (!cpus.empty() && wall_s() - cpu_since >= kCpuDwell) {
      pin_to(cpus[cpu_turn++ % cpus.size()]);
      cpu_since = wall_s();
    }
    if (traced) ledger.begin_job();
    JobResult r;
    const double c0 = cpu_s();
    const double t0 = wall_s();
    try {
      r = w->job(idx, traced ? &ledger : nullptr);
    } catch (const std::exception& e) {
      r.failure = std::string("exception: ") + e.what();
    }
    const double secs = wall_s() - t0;
    const double cpu = cpu_s() - c0;
    if (traced) {
      std::string diag_fail;
      try {
        diag_fail = w->diagnose(ledger);
      } catch (const std::exception& e) {
        diag_fail = std::string("diagnose exception: ") + e.what();
      }
      if (r.failure.empty()) r.failure = diag_fail;
      ledger.end_job(secs * 1e3);
      traced_ms.push_back(secs * 1e3);
    } else {
      job_ms.push_back(secs * 1e3);
      cpu_ms.push_back(cpu * 1e3);
      txns.push_back(r.txns);
      lane_cycles.push_back(r.lane_cycles);
      sim_us.push_back(r.sim_us);
    }
    ++attempted;
    if (!r.failure.empty()) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = "job " + std::to_string(idx) + ": " + r.failure;
      }
    }
  }

  // --- metrics -------------------------------------------------------
  // On a shared host, other tenants slow the program by 20-60% in
  // stretches of a second or more.  The fastest job depends on whether a
  // run catches a fast stretch and reads up to 40% apart between runs of
  // 30 s; the median over a whole run follows the share of slow stretches
  // and reads steadier (flowbench/README.md).  The gated time and rates
  // therefore use the median job; the record line keeps the fastest job
  // and the tail.  A job's work is the same in every job of a run.
  const auto [tail_p, tail_ms] = tail_percentile(job_ms);
  const double p50_s = median_of(job_ms) / 1e3;
  Metrics metrics;
  if (!o.trace) {
    metrics = {{"setup_s", median_of(setup_times)},
               {"job_ms_p50", p50_s * 1e3},
               {"peak_rss_mb", peak_rss_mb()},
               {"txn_per_s", ratio(median_of(txns), p50_s)},
               {"lane_cycles_per_s", ratio(median_of(lane_cycles), p50_s)},
               {"sim_us_per_s", ratio(median_of(sim_us), p50_s)}};
  } else {
    w->per_layer(ledger, metrics);
    metrics.push_back({"trace.overhead",
                       ratio(median_of(traced_ms), median_of(job_ms))});
    metrics.push_back({"trace.span_coverage", ledger.coverage()});
  }

  const double failed_frac = ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted));
  std::string setup_list;
  for (double t : setup_times) {
    setup_list += (setup_list.empty() ? "" : ", ") + json_number(t * 1e3);
  }
  std::printf(
      "{\"record\": \"flowbench\", \"workload\": %s, \"seed\": %llu, "
      "\"trace\": %d, \"jobs\": %zu, \"failed_frac\": %s, "
      "\"untraced_jobs\": %zu, \"job_ms_min\": %s, \"job_ms_tail\": %s, "
      "\"job_ms_tail_percentile\": %d, \"cpu_ms_p50\": %s, "
      "\"cpu_ms_min\": %s, "
      "\"setup_ms\": [%s], \"first_failure\": %s, \"host\": %s, "
      "\"fingerprint\": %s}\n",
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, attempted, json_number(failed_frac).c_str(),
      job_ms.size(), json_number(min_of(job_ms)).c_str(),
      json_number(tail_ms).c_str(), tail_p,
      json_number(median_of(cpu_ms)).c_str(),
      json_number(min_of(cpu_ms)).c_str(), setup_list.c_str(),
      json_string(first_failure).c_str(), host_json(commit).c_str(),
      w->fingerprint().json().c_str());

  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": " +
           json_number(metrics[i].value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const flowbench::Options o = flowbench::parse_args(argc, argv, commit);
  try {
    return flowbench::run(o, commit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 3;
  }
}
