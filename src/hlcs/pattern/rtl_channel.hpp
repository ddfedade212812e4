// RtlChannel: a synthesised netlist co-simulated inside the kernel as
// the communication fabric between behavioural modules -- the "Model
// implementation" of the paper's Figure 2, where the communication part
// of the design has been replaced by its RT-level synthesis result while
// the surrounding modules stay behavioural.
//
// Each behavioural client holds a Port.  A call drives the client's
// req/sel/args pins; on every rising edge the channel feeds all pins into
// the netlist, reads the combinational grant/ret (pre-latch, exactly
// what the hardware client FSM would sample), latches the edge, and
// resumes granted callers.  Like a hardware client FSM, a Port's request
// deasserts in the grant cycle, so a call executes exactly once.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hlcs/sim/clock.hpp"
#include "hlcs/sim/module.hpp"
#include "hlcs/synth/comm_synth.hpp"
#include "hlcs/synth/rtl_sim.hpp"

namespace hlcs::pattern {

class RtlChannel : public sim::Module {
  struct ClientState {
    synth::ClientPorts nets;  ///< resolved once in make_port()
    bool req = false;
    std::uint64_t sel = 0;
    std::uint64_t args = 0;
    std::uint64_t ret = 0;
    std::coroutine_handle<> waiter;
    std::uint64_t waited_cycles = 0;
  };

public:
  /// `netlist` must outlive the channel; it must have been synthesised
  /// with at least as many clients as ports created.
  RtlChannel(sim::Kernel& k, std::string name, const synth::Netlist& netlist,
             sim::Clock& clk)
      : Module(k, std::move(name)),
        rtl_(netlist),
        rst_(netlist.find("rst")) {
    rtl_.set_input(rst_, 0);
    sim::MethodProcess& m =
        method("edge", [this] { on_edge(); }, /*initial_trigger=*/false);
    clk.posedge().add_static(m);
  }

  class Port {
  public:
    Port() = default;

    /// Awaitable guarded-method call through the synthesised object:
    /// suspends until the hardware grants it; returns the ret-port value.
    struct CallAwaiter {
      RtlChannel* chan;
      std::size_t client;
      std::uint64_t sel;
      std::uint64_t args;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ClientState& cs = *chan->clients_[client];
        HLCS_ASSERT(!cs.req, "RtlChannel: port already has a call in flight");
        cs.req = true;
        cs.sel = sel;
        cs.args = args;
        cs.waited_cycles = 0;
        cs.waiter = h;
      }
      std::uint64_t await_resume() const {
        return chan->clients_[client]->ret;
      }
    };

    CallAwaiter call(std::size_t method_index, std::uint64_t args = 0) const {
      HLCS_ASSERT(chan_ != nullptr, "call through unconnected RtlChannel::Port");
      return CallAwaiter{chan_, client_, method_index, args};
    }

    bool connected() const { return chan_ != nullptr; }

  private:
    friend class RtlChannel;
    Port(RtlChannel* c, std::size_t id) : chan_(c), client_(id) {}
    RtlChannel* chan_ = nullptr;
    std::size_t client_ = 0;
  };

  /// Throws if the netlist was synthesised for fewer clients.
  Port make_port() {
    auto cs = std::make_unique<ClientState>();
    cs->nets = synth::client_ports(rtl_.netlist(), clients_.size());
    clients_.push_back(std::move(cs));
    return Port(this, clients_.size() - 1);
  }

  synth::NetlistSim& netlist_sim() { return rtl_; }
  std::uint64_t grants() const { return grants_; }
  std::uint64_t edges() const { return edges_; }

  /// Peek a synthesised state variable by net name ("var_<name>").
  std::uint64_t state(const std::string& var_net) const {
    return rtl_.get(var_net);
  }

private:
  void on_edge() {
    ++edges_;
    for (const std::unique_ptr<ClientState>& cs : clients_) {
      rtl_.set_input(cs->nets.req, cs->req ? 1 : 0);
      rtl_.set_input(cs->nets.sel, cs->sel);
      rtl_.set_input(cs->nets.args, cs->args);
    }
    rtl_.settle();
    // Capture combinational grant/ret before latching -- the values a
    // hardware client samples on this edge.  Port nets come resolved
    // from make_port() and the grant list is a reused scratch buffer,
    // so an edge allocates only while that buffer first grows.
    granted_.clear();
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      ClientState& cs = *clients_[c];
      if (!cs.req) continue;
      if (rtl_.get(cs.nets.grant) != 0) {
        cs.ret = rtl_.get(cs.nets.ret);
        granted_.push_back(c);
      } else {
        cs.waited_cycles++;
      }
    }
    rtl_.clock_edge();
    for (std::size_t c : granted_) {
      ClientState& cs = *clients_[c];
      cs.req = false;  // the client FSM deasserts on grant
      ++grants_;
      if (cs.waiter) {
        auto h = cs.waiter;
        cs.waiter = nullptr;
        kernel().make_runnable(h);
      }
    }
  }

  synth::NetlistSim rtl_;
  synth::NetId rst_;
  std::vector<std::size_t> granted_;  ///< per-edge scratch, reused
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::uint64_t grants_ = 0;
  std::uint64_t edges_ = 0;
};

}  // namespace hlcs::pattern
