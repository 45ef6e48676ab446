#include "check/oracles.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "fault/fault.hpp"
#include "fault/simulator.hpp"
#include "gate/bench_format.hpp"
#include "gate/program.hpp"
#include "rt/checkpoint.hpp"
#include "rt/control.hpp"

namespace bibs::check {

using fault::CoverageCurve;
using fault::FaultList;
using fault::FaultSimulator;
using gate::NetId;
using gate::Netlist;

namespace {

std::string output_label(const Netlist& nl, std::size_t k) {
  const std::string& n = nl.output_names()[k];
  return n.empty() ? "#" + std::to_string(k) : n;
}

void seed_consts(const Netlist& nl, std::vector<std::uint64_t>& vals) {
  for (NetId id = 0; static_cast<std::size_t>(id) < nl.net_count(); ++id) {
    if (nl.gate(id).type == gate::GateType::kConst1)
      vals[static_cast<std::size_t>(id)] = ~0ull;
    else if (nl.gate(id).type == gate::GateType::kConst0)
      vals[static_cast<std::size_t>(id)] = 0;
  }
}

bool interface_mismatch(const Netlist& rv, const Netlist& iv, Verdict& v,
                        const OracleContext& ctx) {
  if (rv.inputs().size() == iv.inputs().size() &&
      rv.outputs().size() == iv.outputs().size())
    return false;
  v.pass = false;
  v.detail = "interface mismatch: " + std::to_string(rv.inputs().size()) +
             "/" + std::to_string(rv.outputs().size()) + " vs " +
             std::to_string(iv.inputs().size()) + "/" +
             std::to_string(iv.outputs().size()) + " inputs/outputs";
  v.cx.valid = true;
  v.cx.seed = ctx.seed;
  if (ctx.emit_netlist) v.cx.netlist_bench = gate::to_bench(iv);
  return true;
}

CoverageCurve run_curve(const Netlist& view, const FaultList& fl,
                        int threads, std::uint64_t seed,
                        std::int64_t patterns) {
  FaultSimulator sim(view, fl);
  sim.set_threads(threads);
  Xoshiro256 rng(seed);
  return sim.run_random(rng, patterns);
}

/// Shared tail of the curve oracles: compares two coverage curves and
/// reconstructs a minimized (single-pattern) counterexample on divergence.
Verdict curve_verdict(const std::string& name, const OracleContext& ctx,
                      const Netlist& iv, const FaultList& flr,
                      const FaultList& fli, const CoverageCurve& cr,
                      const CoverageCurve& ci) {
  Verdict v;
  v.oracle = name;
  if (flr.size() != fli.size()) {
    v.pass = false;
    v.detail = "fault universe mismatch: " + std::to_string(flr.size()) +
               " vs " + std::to_string(fli.size()) + " faults";
    v.cx.valid = true;
    v.cx.seed = ctx.seed;
    if (ctx.emit_netlist) v.cx.netlist_bench = gate::to_bench(iv);
    return v;
  }
  const std::ptrdiff_t k = cr.first_difference(ci);
  if (k < 0 && cr.patterns_run == ci.patterns_run) {
    v.pass = true;
    v.detail = std::to_string(cr.patterns_run) + " patterns, " +
               std::to_string(flr.size()) + " faults, coverage " +
               std::to_string(cr.coverage()) + ": curves identical";
    return v;
  }
  v.pass = false;
  v.cx.valid = true;
  v.cx.seed = ctx.seed;
  if (ctx.emit_netlist) v.cx.netlist_bench = gate::to_bench(iv);
  if (k < 0) {
    v.detail = "pattern counts diverge: " + std::to_string(cr.patterns_run) +
               " vs " + std::to_string(ci.patterns_run);
    return v;
  }
  const std::size_t ku = static_cast<std::size_t>(k);
  v.cx.fault = to_string(iv, fli[ku]);
  const std::int64_t a = cr.detected_at[ku], b = ci.detected_at[ku];
  v.cx.pattern = (a < 0) ? b : (b < 0 ? a : std::min(a, b));
  v.cx.inputs = pattern_at(iv, ctx.seed, v.cx.pattern);
  v.detail = "fault " + v.cx.fault + " first detected at pattern " +
             std::to_string(a) + " vs " + std::to_string(b);
  return v;
}

}  // namespace

std::vector<bool> pattern_at(const Netlist& nl, std::uint64_t seed,
                             std::int64_t index) {
  if (index < 0) return {};
  const Netlist view = combinational_view(nl);
  const std::size_t nin = view.inputs().size();
  // Replays FaultSimulator::run_random's stream: one fresh word per input
  // per 64-pattern block, pattern p in lane p % 64.
  Xoshiro256 rng(seed);
  const std::int64_t block = index / 64;
  const int lane = static_cast<int>(index % 64);
  std::vector<std::uint64_t> words(nin, 0);
  for (std::int64_t b = 0; b <= block; ++b)
    for (std::size_t i = 0; i < nin; ++i) words[i] = rng.next();
  std::vector<bool> vec(nin, false);
  for (std::size_t i = 0; i < nin; ++i) vec[i] = (words[i] >> lane) & 1u;
  return vec;
}

Verdict eval_identity(const OracleContext& ctx) {
  Verdict v;
  v.oracle = "eval_identity";
  const Netlist rv = combinational_view(*ctx.ref);
  const Netlist iv = combinational_view(*ctx.impl);
  if (interface_mismatch(rv, iv, v, ctx)) return v;

  const std::vector<NetId> topo = rv.comb_topo_order();
  const gate::EvalProgram prog(iv);
  std::vector<std::uint64_t> vr(rv.net_count(), 0), vi(iv.net_count(), 0);
  seed_consts(rv, vr);
  seed_consts(iv, vi);

  // Single replicated vector driven through both sides; true iff output k
  // still diverges (the minimizer's probe).
  auto differs_on = [&](std::size_t k, const std::vector<bool>& vec) {
    for (std::size_t i = 0; i < vec.size(); ++i) {
      const std::uint64_t w = vec[i] ? ~0ull : 0ull;
      vr[static_cast<std::size_t>(rv.inputs()[i])] = w;
      vi[static_cast<std::size_t>(iv.inputs()[i])] = w;
    }
    gate::reference_eval(rv, topo, vr.data());
    prog.run(vi.data());
    return ((vr[static_cast<std::size_t>(rv.outputs()[k])] ^
             vi[static_cast<std::size_t>(iv.outputs()[k])]) &
            1u) != 0;
  };

  Xoshiro256 rng(ctx.seed);
  for (int blk = 0; blk < ctx.blocks; ++blk) {
    for (std::size_t i = 0; i < rv.inputs().size(); ++i) {
      const std::uint64_t w = rng.next();
      vr[static_cast<std::size_t>(rv.inputs()[i])] = w;
      vi[static_cast<std::size_t>(iv.inputs()[i])] = w;
    }
    gate::reference_eval(rv, topo, vr.data());
    prog.run(vi.data());
    for (std::size_t k = 0; k < rv.outputs().size(); ++k) {
      const std::uint64_t diff =
          vr[static_cast<std::size_t>(rv.outputs()[k])] ^
          vi[static_cast<std::size_t>(iv.outputs()[k])];
      if (!diff) continue;
      const unsigned lane = static_cast<unsigned>(std::countr_zero(diff));
      std::vector<bool> vec(rv.inputs().size(), false);
      for (std::size_t i = 0; i < vec.size(); ++i)
        vec[i] = (vr[static_cast<std::size_t>(rv.inputs()[i])] >> lane) & 1u;
      // Greedy shrink against the replicated single-vector probe.
      for (std::size_t i = 0; i < vec.size(); ++i) {
        if (!vec[i]) continue;
        vec[i] = false;
        if (!differs_on(k, vec)) vec[i] = true;
      }
      v.pass = false;
      v.cx.valid = true;
      v.cx.seed = ctx.seed;
      v.cx.output = output_label(rv, k);
      v.cx.inputs = std::move(vec);
      if (ctx.emit_netlist) v.cx.netlist_bench = gate::to_bench(iv);
      v.detail = "compiled vs interpreted sweep diverges at output " +
                 v.cx.output;
      return v;
    }
  }
  v.pass = true;
  v.detail = std::to_string(ctx.blocks) + " blocks x 64 patterns, " +
             std::to_string(rv.outputs().size()) + " outputs identical";
  return v;
}

Verdict miter_equivalence(const OracleContext& ctx) {
  EquivOptions opt = ctx.equiv;
  opt.seed = ctx.seed;
  opt.emit_netlist = ctx.emit_netlist;
  const EquivResult r = check_equivalence(*ctx.ref, *ctx.impl, opt);
  Verdict v;
  v.oracle = "miter_equivalence";
  v.pass = r.equivalent;
  v.detail = r.detail;
  v.cx = r.cx;
  return v;
}

Verdict thread_curve_identity(const OracleContext& ctx) {
  Verdict v;
  v.oracle = "thread_curve_identity";
  const Netlist rv = combinational_view(*ctx.ref);
  const Netlist iv = combinational_view(*ctx.impl);
  if (interface_mismatch(rv, iv, v, ctx)) return v;
  const FaultList flr = FaultList::full(rv);
  const FaultList fli = FaultList::full(iv);
  if (flr.size() != fli.size() || flr.size() == 0)
    return curve_verdict(v.oracle, ctx, iv, flr, fli, {}, {});
  const CoverageCurve cr = run_curve(rv, flr, 1, ctx.seed, ctx.patterns);
  const CoverageCurve ci =
      run_curve(iv, fli, ctx.threads, ctx.seed, ctx.patterns);
  return curve_verdict(v.oracle, ctx, iv, flr, fli, cr, ci);
}

Verdict checkpoint_splice_identity(const OracleContext& ctx) {
  Verdict v;
  v.oracle = "checkpoint_splice_identity";
  const Netlist rv = combinational_view(*ctx.ref);
  const Netlist iv = combinational_view(*ctx.impl);
  if (interface_mismatch(rv, iv, v, ctx)) return v;
  const FaultList flr = FaultList::full(rv);
  const FaultList fli = FaultList::full(iv);
  if (flr.size() != fli.size() || flr.size() == 0)
    return curve_verdict(v.oracle, ctx, iv, flr, fli, {}, {});

  const CoverageCurve straight = run_curve(rv, flr, 1, ctx.seed, ctx.patterns);

  FaultSimulator first(iv, fli);
  first.set_threads(1);
  Xoshiro256 rng(ctx.seed);
  rt::RunControl ctl;
  ctl.budget = std::max<std::int64_t>(64, ctx.patterns / 2);
  const CoverageCurve partial = first.run_random(
      rng, ctx.patterns, std::numeric_limits<std::int64_t>::max(), ctl);
  CoverageCurve spliced = partial;
  if (partial.status != rt::RunStatus::kFinished) {
    const rt::SimCheckpoint ckpt = first.make_checkpoint(partial, &rng);
    FaultSimulator second(iv, fli);
    second.set_threads(1);
    Xoshiro256 rng2(ctx.seed + 1);  // overwritten from the checkpoint
    spliced = second.run_random(rng2, ctx.patterns,
                                std::numeric_limits<std::int64_t>::max(), {},
                                &ckpt);
  }
  return curve_verdict(v.oracle, ctx, iv, flr, fli, straight, spliced);
}

const std::vector<Oracle>& standard_oracles() {
  static const std::vector<Oracle> kOracles = {
      {"eval_identity", eval_identity},
      {"miter_equivalence", miter_equivalence},
      {"thread_curve_identity", thread_curve_identity},
      {"checkpoint_splice_identity", checkpoint_splice_identity},
  };
  return kOracles;
}

}  // namespace bibs::check
