#pragma once
// Corpus regression harness: one deterministic sweep over the committed
// ISCAS-85 .bench suite (data/iscas85/) plus the paper's generated data
// paths, through TPG synthesis, PPSFP fault simulation under both fault
// models (stuck-at and transition), BIST session emulation and a light
// bibs::check oracle subset — emitting one CI-diffable per-circuit table
// (CORPUS.json).
//
// Determinism contract: every field of the table is bit-identical across
// thread counts, across interrupted-and-resumed runs, and across repeated
// runs on the same tree. The levers that make this true:
//   * fault simulation always runs 64-pattern scalar blocks, and the BIST
//     session batch backend is pinned (SweepOptions::lanes, default 64 =
//     scalar64) instead of trusting the host's widest SIMD latch;
//   * parallelism lives inside the engines (FaultSimulator / BistSession
//     worker chunks are bit-identical by construction) while the circuit
//     loop itself is serial, so --threads changes wall time only;
//   * coverage percentages are formatted to fixed 4-decimal strings, never
//     serialized as raw doubles;
//   * wall-clock timings go to a SEPARATE table (CorpusResult::timing,
//     CORPUS_TIMING.json) that is never diffed.
//
// Resumability: after every completed circuit the harness atomically
// rewrites its checkpoint file (write temp + rename) with the finished unit
// tables plus a digest of every result-affecting option. A rerun with the
// same options skips the finished prefix and reuses those tables verbatim;
// a digest mismatch discards the checkpoint. Interruption (rt::RunControl:
// cancel, deadline, or a unit-count budget) stops between units — or inside
// a unit via the engines' own polling, in which case the unfinished unit is
// dropped whole — so the final table is byte-identical to an uninterrupted
// run's.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "rt/control.hpp"

namespace bibs::corpus {

/// How a CircuitSpec materializes its netlist.
enum class CircuitKind {
  kBenchFile,      ///< combinational .bench file under SweepOptions::data_dir
  kPaperDatapath,  ///< circuits::make_c5a2m / c3a2m / c4a4m (base names)
  kFirDatapath,    ///< circuits::make_fir_datapath(taps, width)
};

const char* to_string(CircuitKind k);

struct CircuitSpec {
  std::string name;  ///< unique table key, e.g. "c432" or "c5a2m_w4"
  CircuitKind kind = CircuitKind::kBenchFile;
  /// kBenchFile: path relative to SweepOptions::data_dir
  /// (e.g. "iscas85/c432.bench"); kPaperDatapath: generator base name
  /// ("c5a2m", "c3a2m", "c4a4m").
  std::string file;
  int taps = 0;   ///< kFirDatapath: multiply-accumulate stages
  int width = 8;  ///< data-path operand width (datapath kinds only)
};

struct SweepOptions {
  /// Root of the committed data files (the repo's data/ directory).
  std::string data_dir;
  /// Checkpoint file path; empty disables checkpoint/resume.
  std::string checkpoint_path;
  std::uint64_t seed = 1;
  /// Random-pattern budget per (circuit, model) fault-simulation run.
  std::int64_t max_patterns = 4096;
  /// Pattern budgets the coverage_at columns report.
  std::vector<std::int64_t> budgets = {64, 256, 1024, 4096};
  /// Fault models to sweep, in table order.
  std::vector<std::string> models = {"stuck_at", "transition"};
  /// Engine worker threads (0 = BIBS_THREADS / serial). Never affects the
  /// table, only wall time.
  int threads = 0;
  /// Lane width of the BIST session fault batches only; fault simulation
  /// always runs 64-pattern scalar blocks. Must match a compiled-in,
  /// CPU-supported backend (64 = scalar64, the golden default) or be 0
  /// (the widest supported backend).
  int lanes = 64;
  /// Emulate BIST sessions on data-path circuits (both models).
  bool run_sessions = true;
  /// Clock budget per BIST session.
  std::int64_t session_cycles = 2048;
  /// Skip sessions on elaborations above this many gates (TPG emulation of
  /// the biggest FIR sweeps would dominate the run).
  std::size_t session_gate_limit = 4000;
  /// Run the light bibs::check oracle subset per circuit and record the
  /// verdicts in the table.
  bool run_checks = true;
  /// Random-pattern budget of the oracle subset.
  std::int64_t check_patterns = 192;
  /// Interruption: token and deadline are forwarded into the engines; the
  /// budget counts *completed circuits* (not patterns), so a unit budget of
  /// N checkpoints exactly N finished units.
  rt::RunControl ctl;
};

struct CorpusResult {
  /// The CORPUS.json document (deterministic; diff this).
  obs::Json table;
  /// The CORPUS_TIMING.json document (wall-clock; never diff this).
  obs::Json timing;
  rt::RunStatus status = rt::RunStatus::kFinished;
  /// Units completed this run plus units reused from the checkpoint.
  std::size_t units_done = 0;
  /// bibs::check oracle failures across all units (0 on a healthy tree).
  int failed_checks = 0;
};

/// The named subsets the bibs_corpus CLI exposes:
///   "tier1" — c17 + c432 + one small data path; the tier-1 ctest gate.
///   "quick" — 8 ISCAS-85 circuits + two data paths, 4096 patterns.
///   "full"  — all 11 committed ISCAS-85 circuits + the paper data paths +
///             FIR sweeps 10-100x c5a2m (bibs-corpus ctest label).
/// Throws DesignError on an unknown name.
std::vector<CircuitSpec> standard_corpus(const std::string& subset);

/// Result-affecting-option digest (16 hex digits) recorded in checkpoints:
/// seed, pattern budgets, lanes, models, session/check switches, the names
/// of the per-circuit oracles and the circuit list — but NOT threads, which
/// never changes the table.
std::string options_digest(const std::vector<CircuitSpec>& specs,
                           const SweepOptions& opt);

/// Runs the sweep. Throws DesignError on an invalid option (unknown model
/// name, unsupported lane count) and ParseError on a malformed .bench or
/// checkpoint file; engine-level interruptions come back as `status`.
CorpusResult run_corpus(const std::vector<CircuitSpec>& specs,
                        const SweepOptions& opt);

/// Structural diff of two corpus tables (or any two obs::Json documents):
/// every diverging path is reported as "path: golden != fresh", capped at
/// `max_diffs` entries.
std::vector<std::string> diff_tables(const obs::Json& golden,
                                     const obs::Json& fresh,
                                     std::size_t max_diffs = 20);

}  // namespace bibs::corpus
