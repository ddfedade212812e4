// Test-only reference simulator: the recursive tree-walk evaluator.
//
// Every settle evaluates every comb straight off the expression arena
// with eval(), in validate_and_order() order -- no tape, no fanout
// tracking, no native code -- and clock_edge() latches the registers
// with the same two-phase protocol as NetlistSim.  It shares nothing
// with the engines under test beyond the Netlist itself, which is what
// makes it the oracle: the scalar NetlistSim (native or incremental,
// whichever the host runs) and the 64-lane batch engine are compared
// against it net for net.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hlcs/synth/expr.hpp"
#include "hlcs/synth/netlist.hpp"

namespace hlcs::synth {

class ReferenceSim {
public:
  explicit ReferenceSim(const Netlist& nl)
      : nl_(nl),
        order_(nl.validate_and_order()),
        values_(nl.nets().size(), 0),
        latch_(nl.regs().size(), 0) {
    reset_state();
  }

  /// Latch every register's initial value and settle.
  void reset_state() {
    for (const RegDesc& r : nl_.regs()) values_[r.q] = r.init;
    settle();
  }

  void set_input(NetId n, std::uint64_t v) {
    values_.at(n) = v & ExprArena::mask(nl_.nets()[n].width);
  }
  void set_input(const std::string& name, std::uint64_t v) {
    set_input(nl_.find(name), v);
  }

  std::uint64_t get(NetId n) const { return values_.at(n); }
  std::uint64_t get(const std::string& name) const {
    return values_.at(nl_.find(name));
  }

  /// Evaluate every comb in topological order.
  void settle() {
    const std::vector<CombAssign>& combs = nl_.combs();
    for (std::size_t ci : order_) {
      values_[combs[ci].target] =
          eval(nl_.arena(), combs[ci].value, values_, {});
    }
  }

  /// Settle, latch all registers simultaneously, settle again.
  void clock_edge() {
    settle();
    const std::vector<RegDesc>& regs = nl_.regs();
    for (std::size_t i = 0; i < regs.size(); ++i) {
      latch_[i] = values_[regs[i].d];
    }
    for (std::size_t i = 0; i < regs.size(); ++i) {
      values_[regs[i].q] = latch_[i];
    }
    settle();
  }

  const Netlist& netlist() const { return nl_; }

private:
  const Netlist& nl_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> latch_;
};

}  // namespace hlcs::synth
