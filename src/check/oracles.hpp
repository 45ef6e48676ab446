#pragma once
// Metamorphic oracles: executable identities between two implementations of
// the same circuit. Every oracle takes a (reference, implementation) netlist
// pair and checks a relation that must hold when the two are functionally
// equal — so the same predicate serves double duty:
//
//   * ref == impl: a self-check of the engine contracts (compiled kernel ==
//     gate-by-gate reference sweep, N threads == serial, checkpoint splice
//     == straight run, miter self-equivalence);
//   * impl = mutant(ref): a sensitivity check — the oracle must FAIL, which
//     is how the mutation smoke harness (check/mutate.hpp) verifies that the
//     oracles themselves have teeth.
//
// Every failure carries a minimized, replayable Counterexample (seed, input
// vector, diverging output or fault site, and the impl netlist as .bench).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/miter.hpp"
#include "check/verdict.hpp"
#include "gate/netlist.hpp"

namespace bibs::check {

struct OracleContext {
  const gate::Netlist* ref = nullptr;
  const gate::Netlist* impl = nullptr;
  std::uint64_t seed = 1;
  /// Random patterns driven through the fault-curve oracles.
  std::int64_t patterns = 256;
  /// Worker threads of the threaded side of thread_curve_identity.
  int threads = 4;
  /// 64-pattern blocks driven through eval_identity.
  int blocks = 8;
  EquivOptions equiv;
  /// Attach the impl netlist (.bench) to counterexamples.
  bool emit_netlist = true;
};

using OracleFn = std::function<Verdict(const OracleContext&)>;

struct Oracle {
  std::string name;
  OracleFn fn;
};

/// Compiled gate::EvalProgram sweep of impl == gate-by-gate
/// gate::reference_eval sweep of ref, on seeded random pattern blocks,
/// compared output by output.
Verdict eval_identity(const OracleContext& ctx);

/// Miter-based equivalence of ref and impl (exhaustive per cone where
/// feasible); wraps check_equivalence.
Verdict miter_equivalence(const OracleContext& ctx);

/// fault::FaultSimulator coverage curve of ref (serial) == curve of impl
/// (ctx.threads workers), same seed and pattern budget.
Verdict thread_curve_identity(const OracleContext& ctx);

/// Straight run on ref == run k patterns on impl, checkpoint, resume on a
/// fresh simulator (the splice identity of PR 2).
Verdict checkpoint_splice_identity(const OracleContext& ctx);

/// The standard suite, in the order above.
const std::vector<Oracle>& standard_oracles();

/// Replays the random-pattern generator stream of the fault-curve oracles
/// and returns the input vector of pattern `index` (PI order of `nl`'s
/// combinational view). This is how counterexample vectors for curve
/// divergences are reconstructed from (seed, pattern index) alone.
std::vector<bool> pattern_at(const gate::Netlist& nl, std::uint64_t seed,
                             std::int64_t index);

}  // namespace bibs::check
