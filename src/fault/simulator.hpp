#pragma once
// Parallel-pattern single-fault-propagation (PPSFP) stuck-at fault simulator.
//
// Good-circuit values for a block of 64 patterns (one generator call, one
// 64-bit word per net) are computed with one scalar64 levelized sweep; each
// still-undetected fault is then injected and propagated event-driven
// through its fanout cone only (gate::propagate_fault). Detected faults are
// dropped. This is the engine behind the paper's Table 2 coverage numbers.
// The process-wide SIMD lane backend (gate::active_lane_backend) never
// reaches it: curves and patterns_run are the same under every --lanes /
// BIBS_LANES setting.
//
// The simulator operates on purely combinational netlists — for sequential
// balanced kernels, pass gate::combinational_kernel() output (valid by the
// BALLAST single-pattern-testability result).
//
// Multi-threading (set_threads / BIBS_THREADS): the good-circuit sweep of
// each 64-pattern block stays a single shared pass; the still-undetected
// fault list is then partitioned into deterministic contiguous chunks and
// each worker propagates its chunk against private scratch state. Per-fault
// detection words are merged on the calling thread in fault-list order, so
// detected_at, the stall decision, checkpoints and resume are bit-identical
// for any thread count.

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/prng.hpp"
#include "fault/fault.hpp"
#include "gate/lanes.hpp"
#include "gate/netlist.hpp"
#include "gate/program.hpp"
#include "obs/progress.hpp"
#include "rt/checkpoint.hpp"
#include "rt/control.hpp"

namespace bibs::fault {

/// Gate-evaluation backend of the fault simulator: the flat
/// gate::EvalProgram instruction stream is the only one. The enum survives
/// as the constructor's defaulted third parameter for source compatibility.
enum class EvalBackend { kCompiled };

/// Per-fault first-detection record plus helpers to answer "how many patterns
/// to reach X% of detected faults" — the paper's rows 5-8 of Table 2.
struct CoverageCurve {
  static constexpr std::int64_t kUndetected = -1;

  /// First-detection pattern index (0-based) per fault; kUndetected if never.
  std::vector<std::int64_t> detected_at;
  /// Number of patterns that were simulated in total.
  std::int64_t patterns_run = 0;
  /// How the run ended; anything but kFinished marks a partial curve that
  /// can be checkpointed (make_checkpoint) and resumed later.
  rt::RunStatus status = rt::RunStatus::kFinished;

  std::size_t total_faults() const { return detected_at.size(); }
  std::size_t detected_count() const;
  /// Detected / total, in [0, 1].
  double coverage() const;
  /// Smallest pattern count that detects ceil(fraction * detected_count())
  /// of the faults that were ever detected. fraction must lie in (0, 1]
  /// (asserted): at exactly 1.0 this is the pattern count at which the
  /// *last* ever-detected fault fell, i.e. last detection index + 1. When
  /// no fault was ever detected there is nothing to cover and the result is
  /// 0 for every valid fraction.
  std::int64_t patterns_for_fraction(double fraction) const;
  /// Coverage (of total faults) after the first `patterns` patterns.
  double coverage_after(std::int64_t patterns) const;

  /// Index of the first fault whose first-detection record differs from
  /// `other`'s (differing lengths compare at the shorter length's end);
  /// -1 when the detection records are identical. The primitive the
  /// bibs::check curve-identity oracles localize divergences with.
  std::ptrdiff_t first_difference(const CoverageCurve& other) const;
};

class FaultSimulator {
 public:
  /// The netlist must be combinational (no DFFs) and validated. Under
  /// FaultModel::kTransition the fault list must be stem-only (e.g.
  /// FaultList::transition) and detection becomes two-pattern at-speed:
  /// pattern p detects a slow-to-rise (slow-to-fall) fault iff p detects the
  /// corresponding stuck-at-0 (stuck-at-1) fault AND the site's fault-free
  /// value on pattern p-1 — the launch word, i.e. the previous capture word —
  /// was 0 (1). The launch word is the site's good word shifted up one bit,
  /// carrying in the previous block's last value, so the propagate kernel
  /// is untouched and detected_at curves stay thread-invariant; pattern 0
  /// has no launch side and never detects.
  FaultSimulator(const gate::Netlist& nl, FaultList faults,
                 EvalBackend backend = EvalBackend::kCompiled,
                 FaultModel model = FaultModel::kStuckAt);

  const gate::Netlist& netlist() const { return *nl_; }
  const FaultList& faults() const { return faults_; }
  FaultModel fault_model() const { return model_; }

  /// Fills 64 pattern lanes: words[i] is the word for primary input i
  /// (nl.inputs()[i]); returns the number of valid lanes (1..64); returning
  /// 0 ends the run early. run() calls it once per block.
  using PatternBlockFn = std::function<int(std::uint64_t* words)>;

  /// Runs up to max_patterns from the generator. Stops early when all faults
  /// are detected or when `stall_limit` consecutive patterns bring no new
  /// detection. `ctl` is polled once per 64-pattern block: an
  /// interrupted run stops within one block and returns a partial curve
  /// whose `status` says why. `resume` (when non-null) continues a
  /// checkpointed run:
  /// detection state and pattern position are restored and, driven by the
  /// same generator stream, the final curve is bit-exactly the one an
  /// uninterrupted run would have produced.
  CoverageCurve run(const PatternBlockFn& gen, std::int64_t max_patterns,
                    std::int64_t stall_limit =
                        std::numeric_limits<std::int64_t>::max(),
                    const rt::RunControl& ctl = {},
                    const rt::SimCheckpoint* resume = nullptr);

  /// Uniform random patterns from `rng`. On resume, a PRNG state captured
  /// in the checkpoint is restored into `rng` first.
  CoverageCurve run_random(Xoshiro256& rng, std::int64_t max_patterns,
                           std::int64_t stall_limit =
                               std::numeric_limits<std::int64_t>::max(),
                           const rt::RunControl& ctl = {},
                           const rt::SimCheckpoint* resume = nullptr);

  /// Weighted random patterns: every input bit is 1 with probability
  /// `one_probability` (the classic countermeasure to random-pattern-
  /// resistant faults, e.g. long AND/carry chains that want mostly-1
  /// operands). one_probability in (0, 1). Resume as in run_random.
  CoverageCurve run_weighted(Xoshiro256& rng, double one_probability,
                             std::int64_t max_patterns,
                             std::int64_t stall_limit =
                                 std::numeric_limits<std::int64_t>::max(),
                             const rt::RunControl& ctl = {},
                             const rt::SimCheckpoint* resume = nullptr);

  /// All 2^n input patterns (n = number of PIs, n <= 30): the ground truth
  /// for which faults are detectable at all.
  CoverageCurve run_exhaustive(const rt::RunControl& ctl = {},
                               const rt::SimCheckpoint* resume = nullptr);

  /// Snapshot of a (partial) run for later resume; captures `rng` when the
  /// curve came from run_random / run_weighted.
  rt::SimCheckpoint make_checkpoint(const CoverageCurve& curve,
                                    const Xoshiro256* rng = nullptr) const;

  /// Reference implementation: serial single-pattern, full re-simulation.
  /// Used to cross-check the event-driven engine in tests.
  bool detects_naive(const Fault& f, const std::vector<bool>& pattern) const;

  /// Reference two-pattern transition detection: `capture` detects the
  /// transition fault `f` iff the site's fault-free value under `launch`
  /// equals the initialization value (0 for slow-to-rise, 1 for
  /// slow-to-fall) and `capture` detects the corresponding stuck-at fault.
  bool detects_naive_transition(const Fault& f,
                                const std::vector<bool>& launch,
                                const std::vector<bool>& capture) const;

  /// Installs a progress callback invoked from run() roughly every
  /// `every_patterns` simulated patterns and once more when the run ends.
  /// Pass an empty function to disable. The cadence is block-granular
  /// (64-pattern blocks), never the inner fault loop; callbacks always
  /// fire on the thread that called run(), regardless of set_threads.
  void set_progress(obs::ProgressFn fn, std::int64_t every_patterns = 8192);

  /// Source-compatibility shim (as the EvalBackend parameter is): the
  /// simulator always runs 64-lane scalar blocks, so a one-word backend is
  /// accepted and ignored, and any wider one throws DesignError.
  void set_lane_backend(const gate::LaneBackend* backend);

  /// Worker threads for the per-fault propagation loop. 0 (the default)
  /// resolves BIBS_THREADS and falls back to serial; results are
  /// bit-identical for every value (see the header comment).
  void set_threads(int threads);

 private:
  /// Per-worker mutable state for gate::propagate_fault; one instance per
  /// pool chunk so workers never share write access.
  struct Scratch {
    std::vector<std::uint64_t> cur;
    std::vector<gate::NetId> changed;
    // One dirty bit per instruction. Consumer instruction indices always
    // exceed producer indices (the stream is in topo order), so an
    // ascending bit scan IS a topological event order — no levels, no
    // queues. All bits are zero again when propagate returns.
    std::vector<std::uint64_t> dirty;
  };

  void good_eval(const std::uint64_t* in_words);

  /// Fault-free value of net `net` under `pattern` (serial resimulation).
  bool good_value_naive(gate::NetId net,
                        const std::vector<bool>& pattern) const;

  const gate::Netlist* nl_;
  FaultList faults_;
  FaultModel model_ = FaultModel::kStuckAt;
  // Transition model: per fault, the site's fault-free value on the last
  // pattern of the previous block (launch side of the next block's first
  // pattern). have_prev_ is false until the first block completes — pattern
  // 0 has no launch pattern.
  std::vector<std::uint8_t> site_prev_;
  bool have_prev_ = false;
  obs::ProgressFn progress_;
  std::int64_t progress_every_ = 8192;
  int threads_ = 0;  // 0 = BIBS_THREADS, else serial

  // Compiled instruction stream; also the single source of levels and
  // fanout (flat CSR) for the event-driven propagation. topo_ drives the
  // naive reference resimulation (detects_naive).
  gate::EvalProgram prog_;
  std::vector<gate::NetId> topo_;
  std::vector<char> observed_;  // per net: is a PO

  // Good-circuit values of the current block, one word per net (shared,
  // read-only during the parallel fault loop).
  std::vector<std::uint64_t> good_;
};

}  // namespace bibs::fault
