#include "hlcs/synth/comm_synth.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>

namespace hlcs::synth {

std::string req_port(std::size_t client) {
  return "c" + std::to_string(client) + "_req";
}
std::string sel_port(std::size_t client) {
  return "c" + std::to_string(client) + "_sel";
}
std::string args_port(std::size_t client) {
  return "c" + std::to_string(client) + "_args";
}
std::string grant_port(std::size_t client) {
  return "c" + std::to_string(client) + "_grant";
}
std::string ret_port(std::size_t client) {
  return "c" + std::to_string(client) + "_ret";
}
std::string var_port(const ObjectDesc& desc, std::size_t var_index) {
  return "var_" + desc.vars().at(var_index).name;
}

ClientPorts client_ports(const Netlist& nl, std::size_t client) {
  return ClientPorts{nl.find(req_port(client)), nl.find(sel_port(client)),
                     nl.find(args_port(client)), nl.find(grant_port(client)),
                     nl.find(ret_port(client))};
}

std::uint64_t pack_args(const MethodDesc& m,
                        const std::vector<std::uint64_t>& args) {
  HLCS_ASSERT(args.size() == m.args.size(), "pack_args: count mismatch");
  std::uint64_t packed = 0;
  unsigned offset = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    packed |= (args[i] & ExprArena::mask(m.args[i].width)) << offset;
    offset += m.args[i].width;
  }
  return packed;
}

std::vector<std::uint64_t> unpack_args(const MethodDesc& m,
                                       std::uint64_t packed) {
  std::vector<std::uint64_t> args;
  args.reserve(m.args.size());
  unsigned offset = 0;
  for (const ArgDesc& a : m.args) {
    args.push_back((packed >> offset) & ExprArena::mask(a.width));
    offset += a.width;
  }
  return args;
}

namespace {

struct Builder {
  const ObjectDesc& d;
  const SynthOptions& opt;
  Netlist nl;
  ExprArena& A;

  unsigned sel_w, args_w, ret_w, idx_w;
  NetId rst;
  std::vector<NetId> req, sel, args;        // inputs, per client
  std::vector<NetId> grant, ret;            // outputs, per client
  std::vector<NetId> var_q, var_next;       // per state variable
  std::vector<NetId> elig;                  // per client

  Builder(const ObjectDesc& desc, const SynthOptions& options)
      : d(desc),
        opt(options),
        nl(desc.name() + "_rtl"),
        A(nl.arena()),
        sel_w(desc.sel_width()),
        args_w(desc.args_width()),
        ret_w(desc.ret_width()),
        idx_w(index_width(options.clients)) {}

  static unsigned index_width(std::size_t n) {
    unsigned w = 1;
    while ((1ull << w) < n) ++w;
    return w;
  }

  ExprId one() { return A.cst(1, 1); }
  ExprId zero() { return A.cst(0, 1); }

  /// Map an object expression into the netlist for client `i`: Vars
  /// become state-register nets, Args become slices of the client's
  /// packed argument port.
  ExprId import_for_client(ExprId src, std::size_t i, const MethodDesc& m) {
    return clone_expr(
        d.arena(), src, A,
        [&](std::uint32_t var, unsigned) { return nl.net_ref(var_q[var]); },
        [&](std::uint32_t arg, unsigned w) {
          unsigned offset = 0;
          for (std::uint32_t j = 0; j < arg; ++j) offset += m.args[j].width;
          return A.slice(nl.net_ref(args[i]), offset, w);
        });
  }

  void make_ports() {
    rst = nl.add_net("rst", 1);
    nl.mark_input(rst);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      req.push_back(nl.add_net(req_port(i), 1));
      sel.push_back(nl.add_net(sel_port(i), sel_w));
      args.push_back(nl.add_net(args_port(i), args_w));
      nl.mark_input(req.back());
      nl.mark_input(sel.back());
      nl.mark_input(args.back());
      grant.push_back(nl.add_net(grant_port(i), 1));
      ret.push_back(nl.add_net(ret_port(i), ret_w));
      nl.mark_output(grant.back());
      nl.mark_output(ret.back());
    }
    for (std::size_t v = 0; v < d.vars().size(); ++v) {
      var_q.push_back(nl.add_net(var_port(d, v), d.vars()[v].width));
      var_next.push_back(
          nl.add_net(var_port(d, v) + "_next", d.vars()[v].width));
      nl.add_reg(var_q[v], var_next[v], d.vars()[v].init);
      nl.mark_output(var_q[v]);
    }
  }

  /// Eligibility: request present, selector addresses a real method, and
  /// that method's guard holds.
  void make_eligibility() {
    for (std::size_t i = 0; i < opt.clients; ++i) {
      // Mux chain over the selector, default 0 (invalid selector).
      ExprId g = zero();
      for (std::size_t m = d.methods().size(); m-- > 0;) {
        const MethodDesc& md = d.methods()[m];
        ExprId this_guard = md.guard == kNoExpr
                                ? one()
                                : import_for_client(md.guard, i, md);
        ExprId is_m = A.bin(ExprOp::Eq, nl.net_ref(sel[i]),
                            A.cst(static_cast<std::uint64_t>(m), sel_w));
        g = A.mux(is_m, this_guard, g);
      }
      NetId e = nl.add_net("c" + std::to_string(i) + "_elig", 1);
      nl.add_comb(e, A.bin(ExprOp::And, nl.net_ref(req[i]), g));
      elig.push_back(e);
    }
  }

  /// Chain priority encoder over client order `order`; writes grant nets.
  /// Reset forces all grants to 0.
  void priority_encode(const std::vector<std::size_t>& order,
                       std::vector<ExprId>& grant_expr) {
    ExprId taken = zero();
    grant_expr.assign(opt.clients, kNoExpr);
    for (std::size_t i : order) {
      ExprId e = nl.net_ref(elig[i]);
      grant_expr[i] = A.bin(ExprOp::And, e, A.un(ExprOp::Not, taken));
      taken = A.bin(ExprOp::Or, taken, e);
    }
  }

  void finish_grants(const std::vector<ExprId>& grant_expr) {
    ExprId not_rst = A.un(ExprOp::Not, nl.net_ref(rst));
    for (std::size_t i = 0; i < opt.clients; ++i) {
      nl.add_comb(grant[i], A.bin(ExprOp::And, grant_expr[i], not_rst));
    }
  }

  void make_arbiter_static_priority() {
    std::vector<int> prio = opt.priorities;
    if (prio.empty()) {
      // Default: client 0 highest.
      for (std::size_t i = 0; i < opt.clients; ++i) {
        prio.push_back(static_cast<int>(opt.clients - i));
      }
    }
    HLCS_ASSERT(prio.size() == opt.clients,
                "priorities size must equal client count");
    std::vector<std::size_t> order(opt.clients);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return prio[a] > prio[b];
    });
    std::vector<ExprId> ge;
    priority_encode(order, ge);
    finish_grants(ge);
  }

  void make_arbiter_round_robin() {
    // last-grant register.
    NetId last_q = nl.add_net("rr_last", idx_w);
    NetId last_d = nl.add_net("rr_last_next", idx_w);
    nl.add_reg(last_q, last_d,
               static_cast<std::uint64_t>(opt.clients - 1));

    // First pass: eligible clients with index > last.
    std::vector<ExprId> cand1(opt.clients);
    ExprId any1 = zero();
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId gt = A.bin(ExprOp::Gt, A.cst(i, idx_w), nl.net_ref(last_q));
      cand1[i] = A.bin(ExprOp::And, nl.net_ref(elig[i]), gt);
      any1 = A.bin(ExprOp::Or, any1, cand1[i]);
    }
    // Priority-encode both passes in index order, select by any1.
    std::vector<ExprId> ge(opt.clients);
    ExprId taken1 = zero(), taken0 = zero();
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId g1 = A.bin(ExprOp::And, cand1[i], A.un(ExprOp::Not, taken1));
      taken1 = A.bin(ExprOp::Or, taken1, cand1[i]);
      ExprId e0 = nl.net_ref(elig[i]);
      ExprId g0 = A.bin(ExprOp::And, e0, A.un(ExprOp::Not, taken0));
      taken0 = A.bin(ExprOp::Or, taken0, e0);
      ge[i] = A.mux(any1, g1, g0);
    }
    finish_grants(ge);

    // last_next: granted index, else hold; reset to clients-1.
    ExprId granted_idx = A.cst(0, idx_w);
    ExprId granted_any = zero();
    for (std::size_t i = 0; i < opt.clients; ++i) {
      granted_idx = A.mux(nl.net_ref(grant[i]), A.cst(i, idx_w), granted_idx);
      granted_any = A.bin(ExprOp::Or, granted_any, nl.net_ref(grant[i]));
    }
    ExprId hold = A.mux(granted_any, granted_idx, nl.net_ref(last_q));
    nl.add_comb(last_d, A.mux(nl.net_ref(rst),
                              A.cst(opt.clients - 1, idx_w), hold));
  }

  void make_arbiter_fifo() {
    const unsigned aw = opt.fifo_age_width;
    HLCS_ASSERT(aw >= 2 && aw <= 32, "fifo_age_width out of range");
    std::vector<NetId> age_q(opt.clients), age_d(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      age_q[i] = nl.add_net("c" + std::to_string(i) + "_age", aw);
      age_d[i] = nl.add_net("c" + std::to_string(i) + "_age_next", aw);
      nl.add_reg(age_q[i], age_d[i], 0);
    }
    // Oldest eligible wins; equal ages break toward the lower index.
    std::vector<ExprId> ge(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId beaten = zero();
      for (std::size_t j = 0; j < opt.clients; ++j) {
        if (j == i) continue;
        ExprId older = A.bin(ExprOp::Gt, nl.net_ref(age_q[j]),
                             nl.net_ref(age_q[i]));
        ExprId tie_wins =
            j < i ? A.bin(ExprOp::Eq, nl.net_ref(age_q[j]),
                          nl.net_ref(age_q[i]))
                  : zero();
        ExprId beats = A.bin(ExprOp::And, nl.net_ref(elig[j]),
                             A.bin(ExprOp::Or, older, tie_wins));
        beaten = A.bin(ExprOp::Or, beaten, beats);
      }
      ge[i] =
          A.bin(ExprOp::And, nl.net_ref(elig[i]), A.un(ExprOp::Not, beaten));
    }
    finish_grants(ge);

    // Age update: cleared on grant / no request / reset, else saturating
    // increment while a request is pending.
    const std::uint64_t max_age = ExprArena::mask(aw);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId at_max = A.bin(ExprOp::Eq, nl.net_ref(age_q[i]),
                            A.cst(max_age, aw));
      ExprId inc = A.mux(at_max, A.cst(max_age, aw),
                         A.bin(ExprOp::Add, nl.net_ref(age_q[i]),
                               A.cst(1, aw)));
      ExprId clear = A.bin(ExprOp::Or, nl.net_ref(grant[i]),
                           A.un(ExprOp::Not, nl.net_ref(req[i])));
      clear = A.bin(ExprOp::Or, clear, nl.net_ref(rst));
      nl.add_comb(age_d[i], A.mux(clear, A.cst(0, aw), inc));
    }
  }

  void make_arbiter_random() {
    HLCS_ASSERT(opt.lfsr_seed != 0, "LFSR seed must be non-zero");
    // 16-bit Fibonacci LFSR, taps 16,14,13,11 (x^16+x^14+x^13+x^11+1).
    NetId lfsr_q = nl.add_net("lfsr", 16);
    NetId lfsr_d = nl.add_net("lfsr_next", 16);
    nl.add_reg(lfsr_q, lfsr_d, opt.lfsr_seed);
    ExprId l = nl.net_ref(lfsr_q);
    ExprId fb = A.bin(
        ExprOp::Xor, A.slice(l, 0, 1),
        A.bin(ExprOp::Xor, A.slice(l, 2, 1),
              A.bin(ExprOp::Xor, A.slice(l, 3, 1), A.slice(l, 5, 1))));
    ExprId shifted = A.slice(nl.net_ref(lfsr_q), 1, 15);
    ExprId next = A.bin(ExprOp::Concat, fb, shifted);
    nl.add_comb(lfsr_d, A.mux(nl.net_ref(rst), A.cst(opt.lfsr_seed, 16), next));

    // offset = low bits of LFSR, folded into [0, clients).
    ExprId raw = A.slice(nl.net_ref(lfsr_q), 0, idx_w);
    ExprId n_c = A.cst(opt.clients, idx_w == 1 ? 2 : idx_w + 1);
    ExprId raw_w = A.zext(raw, idx_w == 1 ? 2 : idx_w + 1);
    ExprId over = A.bin(ExprOp::Ge, raw_w, n_c);
    ExprId folded =
        A.mux(over, A.slice(A.bin(ExprOp::Sub, raw_w, n_c), 0, idx_w), raw);
    NetId offset = nl.add_net("rnd_offset", idx_w);
    nl.add_comb(offset, folded);

    // Rotating rank: rank(i) = (i - offset) mod clients; min rank wins.
    const unsigned rw = idx_w + 1;
    std::vector<ExprId> rank(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId off = A.zext(nl.net_ref(offset), rw);
      ExprId iv = A.cst(i, rw);
      ExprId wrapped = A.bin(
          ExprOp::Sub, A.bin(ExprOp::Add, iv, A.cst(opt.clients, rw)), off);
      ExprId plain = A.bin(ExprOp::Sub, iv, off);
      ExprId ge_off = A.bin(ExprOp::Ge, iv, off);
      rank[i] = A.mux(ge_off, plain, wrapped);
    }
    std::vector<ExprId> ge(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId beaten = zero();
      for (std::size_t j = 0; j < opt.clients; ++j) {
        if (j == i) continue;
        ExprId better = A.bin(ExprOp::Lt, rank[j], rank[i]);
        beaten = A.bin(ExprOp::Or, beaten,
                       A.bin(ExprOp::And, nl.net_ref(elig[j]), better));
      }
      ge[i] =
          A.bin(ExprOp::And, nl.net_ref(elig[i]), A.un(ExprOp::Not, beaten));
    }
    finish_grants(ge);
  }

  /// Adaptive arbitration (osss::AdaptiveArbitration in RTL form):
  /// per-client age + eligible-streak counters, a contention window and
  /// a hot/cold mode register.  Aged clients (age >= starve_bound) form
  /// an absolute-priority lane (oldest wins); otherwise the hot mode
  /// keys on the eligible streak and the cold mode on the age.  Ties
  /// break toward the lower client index (the RTL stand-in for the
  /// behavioural priority/seq tie-break -- docs/CONTENTION.md).
  void make_arbiter_adaptive() {
    const unsigned aw = opt.fifo_age_width;
    HLCS_ASSERT(aw >= 2 && aw <= 32, "fifo_age_width out of range");
    const std::uint64_t max_age = ExprArena::mask(aw);
    HLCS_ASSERT(opt.adaptive_starve_bound >= 1 &&
                    opt.adaptive_starve_bound <= max_age,
                "adaptive_starve_bound must fit in fifo_age_width bits");
    const unsigned wl = opt.adaptive_window_log2;
    HLCS_ASSERT(wl >= 1 && wl <= 16, "adaptive_window_log2 out of range");
    const std::uint64_t window = std::uint64_t{1} << wl;
    HLCS_ASSERT(opt.adaptive_hot_threshold >= 1 &&
                    opt.adaptive_hot_threshold <= window,
                "adaptive_hot_threshold must be in [1, 2^window_log2]");

    std::vector<NetId> age_q(opt.clients), age_d(opt.clients);
    std::vector<NetId> str_q(opt.clients), str_d(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      const std::string c = "c" + std::to_string(i);
      age_q[i] = nl.add_net(c + "_aage", aw);
      age_d[i] = nl.add_net(c + "_aage_next", aw);
      nl.add_reg(age_q[i], age_d[i], 0);
      str_q[i] = nl.add_net(c + "_streak", aw);
      str_d[i] = nl.add_net(c + "_streak_next", aw);
      nl.add_reg(str_q[i], str_d[i], 0);
    }
    NetId wcnt_q = nl.add_net("adp_wcnt", wl);
    NetId wcnt_d = nl.add_net("adp_wcnt_next", wl);
    nl.add_reg(wcnt_q, wcnt_d, 0);
    const unsigned hw = wl + 1;
    NetId hcnt_q = nl.add_net("adp_hcnt", hw);
    NetId hcnt_d = nl.add_net("adp_hcnt_next", hw);
    nl.add_reg(hcnt_q, hcnt_d, 0);
    NetId mode_q = nl.add_net("adp_mode", 1);
    NetId mode_d = nl.add_net("adp_mode_next", 1);
    nl.add_reg(mode_q, mode_d, 0);

    // any_elig / contended (>= 2 eligible) via a linear seen-one chain.
    ExprId any_elig = zero();
    ExprId contended = zero();
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId e = nl.net_ref(elig[i]);
      contended = A.bin(ExprOp::Or, contended, A.bin(ExprOp::And, any_elig, e));
      any_elig = A.bin(ExprOp::Or, any_elig, e);
    }

    // Aged lane: eligible streak (policy-caused wait) reached the bound.
    std::vector<ExprId> aged(opt.clients);
    ExprId any_aged = zero();
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId old_enough =
          A.bin(ExprOp::Ge, nl.net_ref(str_q[i]),
                A.cst(opt.adaptive_starve_bound, aw));
      aged[i] = A.bin(ExprOp::And, nl.net_ref(elig[i]), old_enough);
      any_aged = A.bin(ExprOp::Or, any_aged, aged[i]);
    }

    // Candidate set and per-client key: the aged lane and the hot mode
    // key on the eligible streak, the cold mode on the request age.
    ExprId use_streak = A.bin(ExprOp::Or, nl.net_ref(mode_q), any_aged);
    std::vector<ExprId> cand(opt.clients), key(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      cand[i] = A.mux(any_aged, aged[i], nl.net_ref(elig[i]));
      key[i] = A.mux(use_streak, nl.net_ref(str_q[i]), nl.net_ref(age_q[i]));
    }

    // Max-key candidate wins; equal keys break toward the lower index.
    std::vector<ExprId> ge(opt.clients);
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId beaten = zero();
      for (std::size_t j = 0; j < opt.clients; ++j) {
        if (j == i) continue;
        ExprId better = A.bin(ExprOp::Gt, key[j], key[i]);
        ExprId tie_wins =
            j < i ? A.bin(ExprOp::Eq, key[j], key[i]) : zero();
        ExprId beats = A.bin(ExprOp::And, cand[j],
                             A.bin(ExprOp::Or, better, tie_wins));
        beaten = A.bin(ExprOp::Or, beaten, beats);
      }
      ge[i] = A.bin(ExprOp::And, cand[i], A.un(ExprOp::Not, beaten));
    }
    finish_grants(ge);

    // Counter updates (all saturating at the register width).
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId at_max = A.bin(ExprOp::Eq, nl.net_ref(age_q[i]),
                            A.cst(max_age, aw));
      ExprId inc = A.mux(at_max, A.cst(max_age, aw),
                         A.bin(ExprOp::Add, nl.net_ref(age_q[i]),
                               A.cst(1, aw)));
      ExprId clear = A.bin(ExprOp::Or, nl.net_ref(grant[i]),
                           A.un(ExprOp::Not, nl.net_ref(req[i])));
      clear = A.bin(ExprOp::Or, clear, nl.net_ref(rst));
      nl.add_comb(age_d[i], A.mux(clear, A.cst(0, aw), inc));

      ExprId s_at_max = A.bin(ExprOp::Eq, nl.net_ref(str_q[i]),
                              A.cst(max_age, aw));
      ExprId s_inc = A.mux(s_at_max, A.cst(max_age, aw),
                           A.bin(ExprOp::Add, nl.net_ref(str_q[i]),
                                 A.cst(1, aw)));
      ExprId s_clear = A.bin(ExprOp::Or, nl.net_ref(grant[i]),
                             A.un(ExprOp::Not, nl.net_ref(elig[i])));
      s_clear = A.bin(ExprOp::Or, s_clear, nl.net_ref(rst));
      nl.add_comb(str_d[i], A.mux(s_clear, A.cst(0, aw), s_inc));
    }

    // Window bookkeeping: a "step" is a cycle with any eligible client
    // (mirroring the behavioural policy, whose pick() only runs then).
    ExprId at_last = A.bin(ExprOp::Eq, nl.net_ref(wcnt_q),
                           A.cst(window - 1, wl));
    ExprId window_end = A.bin(ExprOp::And, any_elig, at_last);
    ExprId w_inc = A.mux(at_last, A.cst(0, wl),
                         A.bin(ExprOp::Add, nl.net_ref(wcnt_q), A.cst(1, wl)));
    ExprId w_hold = A.mux(any_elig, w_inc, nl.net_ref(wcnt_q));
    nl.add_comb(wcnt_d, A.mux(nl.net_ref(rst), A.cst(0, wl), w_hold));

    ExprId cont_w = A.mux(contended, A.cst(1, hw), A.cst(0, hw));
    ExprId h_sum = A.bin(ExprOp::Add, nl.net_ref(hcnt_q), cont_w);
    ExprId h_step = A.mux(window_end, A.cst(0, hw), h_sum);
    ExprId h_hold = A.mux(any_elig, h_step, nl.net_ref(hcnt_q));
    nl.add_comb(hcnt_d, A.mux(nl.net_ref(rst), A.cst(0, hw), h_hold));

    ExprId hot_next = A.bin(ExprOp::Ge, h_sum,
                            A.cst(opt.adaptive_hot_threshold, hw));
    ExprId m_step = A.mux(window_end, hot_next, nl.net_ref(mode_q));
    nl.add_comb(mode_d, A.mux(nl.net_ref(rst), zero(), m_step));
  }

  /// State next-value logic and per-client return values.
  void make_datapath() {
    for (std::size_t v = 0; v < d.vars().size(); ++v) {
      ExprId cur = nl.net_ref(var_q[v]);
      for (std::size_t i = 0; i < opt.clients; ++i) {
        for (std::size_t m = 0; m < d.methods().size(); ++m) {
          const MethodDesc& md = d.methods()[m];
          for (const AssignDesc& as : md.body) {
            if (as.var != v) continue;
            ExprId is_m = A.bin(ExprOp::Eq, nl.net_ref(sel[i]),
                                A.cst(m, sel_w));
            ExprId cond = A.bin(ExprOp::And, nl.net_ref(grant[i]), is_m);
            ExprId val = import_for_client(as.value, i, md);
            cur = A.mux(cond, val, cur);
          }
        }
      }
      ExprId rst_val = A.cst(d.vars()[v].init, d.vars()[v].width);
      nl.add_comb(var_next[v], A.mux(nl.net_ref(rst), rst_val, cur));
    }
    for (std::size_t i = 0; i < opt.clients; ++i) {
      ExprId r = A.cst(0, ret_w);
      for (std::size_t m = d.methods().size(); m-- > 0;) {
        const MethodDesc& md = d.methods()[m];
        if (md.ret == kNoExpr) continue;
        ExprId val = import_for_client(md.ret, i, md);
        if (md.ret_width < ret_w) val = A.zext(val, ret_w);
        ExprId is_m = A.bin(ExprOp::Eq, nl.net_ref(sel[i]), A.cst(m, sel_w));
        r = A.mux(is_m, val, r);
      }
      nl.add_comb(ret[i], r);
    }
  }

  Netlist build() {
    make_ports();
    make_eligibility();
    switch (opt.policy) {
      case osss::PolicyKind::StaticPriority: make_arbiter_static_priority(); break;
      case osss::PolicyKind::RoundRobin: make_arbiter_round_robin(); break;
      case osss::PolicyKind::Fifo: make_arbiter_fifo(); break;
      case osss::PolicyKind::Random: make_arbiter_random(); break;
      case osss::PolicyKind::Adaptive: make_arbiter_adaptive(); break;
    }
    make_datapath();
    nl.validate_and_order();  // fail fast if construction broke an invariant
    return std::move(nl);
  }
};

}  // namespace

Netlist synthesize(const ObjectDesc& desc, const SynthOptions& options) {
  desc.validate();
  if (options.clients < 1 || options.clients > 64) {
    throw SynthesisError("synthesize: client count must be in [1,64]");
  }
  Builder b(desc, options);
  return b.build();
}

}  // namespace hlcs::synth
