// The communication synthesiser: ObjectDesc x N clients x arbitration
// policy  ->  RTL netlist.  This is the library's stand-in for the
// ODETTE synthesis tool: it turns guarded-method communication into
// synchronous logic.
//
// Generated interface (all activity on the rising clock edge):
//   input  rst                      synchronous reset (state + arbiter)
//   per client i:
//     input  c{i}_req   [1]         request pending
//     input  c{i}_sel   [S]         method select (S = ceil(log2 M))
//     input  c{i}_args  [A]         arguments, packed LSB-first
//     output c{i}_grant [1]         combinational: THIS cycle executes the call
//     output c{i}_ret   [R]         combinational: return value (entry state)
//   per state variable v:
//     output var_{v}                registered state, for observation
//
// One call is granted per clock cycle -- the paper's "synchronous logic"
// implementation of guarded methods.  Guards evaluate combinationally
// over the registered state and the requesting client's arguments.
//
// Arbitration is synthesised structurally:
//   StaticPriority  fixed priority-encoder chain (priority order given in
//                   options, default: client 0 highest)
//   RoundRobin      last-grant register + rotating priority encoder
//   Fifo            per-client saturating age counters; oldest wins,
//                   lowest index breaks ties
//   Random          16-bit Fibonacci LFSR selects a rotating offset
//   Adaptive        age + eligible-streak counters, hot/cold mode
//                   register re-evaluated every 2^window_log2 grants
//                   (see docs/CONTENTION.md)
#pragma once

#include <cstdint>
#include <vector>

#include "hlcs/osss/arbitration.hpp"
#include "hlcs/synth/netlist.hpp"
#include "hlcs/synth/object_desc.hpp"

namespace hlcs::synth {

struct SynthOptions {
  std::size_t clients = 1;
  osss::PolicyKind policy = osss::PolicyKind::StaticPriority;
  /// Per-client priorities for StaticPriority (higher wins; ties broken
  /// by lower client index).  Empty = client 0 highest.
  std::vector<int> priorities;
  /// Width of the FIFO age counters (saturating).
  unsigned fifo_age_width = 8;
  /// Seed of the Random policy's LFSR (must be non-zero).
  std::uint16_t lfsr_seed = 0xACE1;
  // --- Adaptive policy (mirrors osss::AdaptiveTuning) ------------------
  /// Aged-lane threshold: an eligible client whose age counter reaches
  /// this value is served oldest-first ahead of everything else.  Must
  /// fit in fifo_age_width bits.
  std::uint64_t adaptive_starve_bound = 128;
  /// Mode window is 2^window_log2 arbitration steps (power of two so
  /// the window counter is a plain wrapping register).
  unsigned adaptive_window_log2 = 4;
  /// Contended steps per window at or above which hot mode engages.
  unsigned adaptive_hot_threshold = 8;
};

/// Compile a synthesisable object into an RTL netlist.  Throws
/// SynthesisError if the description is invalid or the options are
/// unsupported.
Netlist synthesize(const ObjectDesc& desc, const SynthOptions& options);

// --- port-name helpers (shared by tests, benches, golden model) --------
std::string req_port(std::size_t client);
std::string sel_port(std::size_t client);
std::string args_port(std::size_t client);
std::string grant_port(std::size_t client);
std::string ret_port(std::size_t client);
std::string var_port(const ObjectDesc& desc, std::size_t var_index);

/// One client's port nets, resolved by name once so per-cycle loops
/// build no names (Netlist::find throws if there are fewer clients).
struct ClientPorts {
  NetId req, sel, args, grant, ret;
};
ClientPorts client_ports(const Netlist& nl, std::size_t client);

/// Pack method arguments LSB-first in declaration order.
std::uint64_t pack_args(const MethodDesc& m,
                        const std::vector<std::uint64_t>& args);
/// Inverse of pack_args.
std::vector<std::uint64_t> unpack_args(const MethodDesc& m,
                                       std::uint64_t packed);

}  // namespace hlcs::synth
