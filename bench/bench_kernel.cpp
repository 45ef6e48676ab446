// Compiled-kernel benchmark and bit-identity gate (docs/performance.md).
//
// Measures the gate::EvalProgram instruction stream on the c5a2m data path
// at three levels:
//
//   raw        gate-evals/s of a pure levelized sweep — EvalProgram::run vs
//              gate::reference_eval on identical random source words.
//   backends   the lane-width matrix: every compiled-in, CPU-supported
//              gate::LaneBackend (scalar64/avx512) sweeping W*64
//              pattern lanes per block — raw Mpatterns/s, gated on
//              bit-identity with the scalar64 golden backend. The SIMD
//              acceptance criterion lives here: the widest supported backend
//              must sweep >= 2x the raw scalar64 throughput.
//   fault_sim  single-thread PPSFP wall time of FaultSimulator (always
//              64-pattern scalar blocks), gated on the 4-thread curve
//              matching the serial one.
//
// Every measurement doubles as an identity gate: detected_at curves, MISR
// signatures, checkpoints, 1-vs-4-thread and wide-vs-64-lane session
// results must be bit-identical, or the process exits nonzero. `--check`
// runs only the (fast) identity gates — that mode backs the
// check_kernel_identity ctests. `--lanes NAME` restricts the backend matrix
// to scalar64 + NAME and exits 77 when the CPU lacks NAME's ISA (ctest
// SKIP_RETURN_CODE). `--out FILE` writes BENCH_kernel.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "circuits/datapaths.hpp"
#include "common/parse.hpp"
#include "common/prng.hpp"
#include "core/designer.hpp"
#include "fault/simulator.hpp"
#include "gate/lanes.hpp"
#include "gate/program.hpp"
#include "gate/synth.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "rt/checkpoint.hpp"
#include "sim/session.hpp"

namespace {

using namespace bibs;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int g_failures = 0;

/// Benchmark-loop checksums land here so sweeps cannot be optimized away.
volatile std::uint64_t g_sink = 0;

void gate_check(bool ok, const std::string& what) {
  std::cerr << "  [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  if (!ok) ++g_failures;
}

/// The c5a2m data path of the acceptance criterion: whole-path kernel for
/// the fault simulator, BIBS design for the session.
struct Fixture {
  rtl::Netlist n = circuits::make_c5a2m();
  gate::Elaboration elab = gate::elaborate(n);
  core::DesignResult design = core::design_bibs(n);
  gate::Netlist kernel;
  const core::Kernel* first_kernel = nullptr;

  Fixture() {
    std::vector<rtl::ConnId> in_regs, out_regs;
    for (const auto& c : n.connections()) {
      if (!c.is_register()) continue;
      if (n.block(c.from).kind == rtl::BlockKind::kInput)
        in_regs.push_back(c.id);
      if (n.block(c.to).kind == rtl::BlockKind::kOutput)
        out_regs.push_back(c.id);
    }
    kernel = gate::combinational_kernel(elab, n, in_regs, out_regs);
    for (const core::Kernel& k : design.report.kernels)
      if (!k.trivial && !first_kernel) first_kernel = &k;
  }
};

/// Seeds word j (of `words` per net) of every source net; scalar callers
/// pass words == 1, j == 0.
void seed_sources(const gate::Netlist& nl, Xoshiro256& rng,
                  std::vector<std::uint64_t>& values, std::size_t words = 1,
                  std::size_t j = 0) {
  for (gate::NetId id = 0; static_cast<std::size_t>(id) < nl.net_count();
       ++id) {
    const std::size_t at = static_cast<std::size_t>(id) * words + j;
    switch (nl.gate(id).type) {
      case gate::GateType::kInput:
      case gate::GateType::kDff:
        values[at] = rng.next();
        break;
      case gate::GateType::kConst1:
        values[at] = ~0ull;
        break;
      default:
        values[at] = 0;
    }
  }
}

/// Raw levelized-sweep throughput: interpreted vs compiled over identical
/// random blocks. Returns the JSON row; checks the sweeps stay identical.
obs::Json bench_raw(const Fixture& fx, int blocks) {
  const gate::Netlist& nl = fx.kernel;
  const gate::EvalProgram prog(nl);
  const std::vector<gate::NetId> topo = nl.comb_topo_order();
  const std::int64_t evals =
      static_cast<std::int64_t>(topo.size()) * blocks;

  // Every block's random source words are drawn before the timed loops,
  // so the timings hold the sweeps alone and not the generator. Constants
  // are seeded once; the sweep overwrites every gate net.
  std::vector<std::uint64_t> vals(nl.net_count());
  Xoshiro256 rng(77);
  seed_sources(nl, rng, vals);
  std::vector<gate::NetId> sources;
  for (gate::NetId id = 0; static_cast<std::size_t>(id) < nl.net_count();
       ++id)
    if (nl.gate(id).type == gate::GateType::kInput ||
        nl.gate(id).type == gate::GateType::kDff)
      sources.push_back(id);
  std::vector<std::uint64_t> block_words(sources.size() *
                                         static_cast<std::size_t>(blocks));
  for (std::uint64_t& w : block_words) w = rng.next();
  const auto load_block = [&](int b) {
    const std::uint64_t* w =
        block_words.data() + static_cast<std::size_t>(b) * sources.size();
    for (std::size_t i = 0; i < sources.size(); ++i)
      vals[static_cast<std::size_t>(sources[i])] = w[i];
  };

  std::uint64_t sink_i = 0, sink_c = 0;

  // Min of 3 repeats per side — same noise suppression as the fault-sim
  // measurement (1-core CI boxes). The checksum accumulates across repeats
  // on both sides, so identity still covers every evaluated block.
  double interp_ms = -1, compiled_ms = -1;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t_i = Clock::now();
    for (int b = 0; b < blocks; ++b) {
      load_block(b);
      gate::reference_eval(nl, topo, vals.data());
      for (gate::NetId o : nl.outputs())
        sink_i ^= vals[static_cast<std::size_t>(o)];
    }
    const double ms = ms_since(t_i);
    if (interp_ms < 0 || ms < interp_ms) interp_ms = ms;

    const Clock::time_point t_c = Clock::now();
    for (int b = 0; b < blocks; ++b) {
      load_block(b);
      prog.run(vals.data());
      for (gate::NetId o : nl.outputs())
        sink_c ^= vals[static_cast<std::size_t>(o)];
    }
    const double ms_c = ms_since(t_c);
    if (compiled_ms < 0 || ms_c < compiled_ms) compiled_ms = ms_c;
  }

  gate_check(sink_i == sink_c, "raw sweep output checksums identical");

  obs::Json row = obs::Json::object();
  row["gates"] = static_cast<std::int64_t>(topo.size());
  row["blocks"] = blocks;
  row["interpreted_ms"] = interp_ms;
  row["compiled_ms"] = compiled_ms;
  // Each block evaluates every gate once for 64 pattern lanes.
  row["interpreted_gate_evals_per_s"] =
      interp_ms > 0 ? 64.0 * static_cast<double>(evals) / (interp_ms / 1e3)
                    : 0.0;
  row["compiled_gate_evals_per_s"] =
      compiled_ms > 0 ? 64.0 * static_cast<double>(evals) / (compiled_ms / 1e3)
                      : 0.0;
  row["speedup"] = compiled_ms > 0 ? interp_ms / compiled_ms : 0.0;
  std::cerr << "  raw: interpreted " << interp_ms << " ms, compiled "
            << compiled_ms << " ms ("
            << (compiled_ms > 0 ? interp_ms / compiled_ms : 0.0) << "x)\n";
  return row;
}

bool same_curve(const fault::CoverageCurve& a, const fault::CoverageCurve& b) {
  return a.patterns_run == b.patterns_run && a.detected_at == b.detected_at;
}

/// One lane backend's wide sweep must reproduce, word slice by word slice,
/// the scalar64 sweep of the same source words.
bool raw_slice_identity(const gate::Netlist& nl, const gate::EvalProgram& prog,
                        const gate::LaneBackend* lb) {
  const std::size_t w = static_cast<std::size_t>(lb->words);
  Xoshiro256 rng(123);
  std::vector<std::vector<std::uint64_t>> slices(w);
  std::vector<std::uint64_t> wide(nl.net_count() * w);
  for (std::size_t j = 0; j < w; ++j) {
    slices[j].resize(nl.net_count());
    seed_sources(nl, rng, slices[j]);
    for (std::size_t n = 0; n < nl.net_count(); ++n)
      wide[n * w + j] = slices[j][n];
  }
  lb->run_range(prog.view(), 0, prog.size(), wide.data());
  const gate::LaneBackend* scalar = &gate::scalar_lane_backend();
  for (std::size_t j = 0; j < w; ++j) {
    scalar->run_range(prog.view(), 0, prog.size(), slices[j].data());
    for (std::size_t n = 0; n < nl.net_count(); ++n)
      if (wide[n * w + j] != slices[j][n]) return false;
  }
  return true;
}

/// The lane-width matrix: per-backend raw sweep throughput, gated on
/// bit-identity with scalar64. `only` (when non-null) restricts the matrix
/// to scalar64 + that backend.
obs::Json bench_backends(const Fixture& fx, int blocks, bool measure,
                         const gate::LaneBackend* only) {
  const gate::Netlist& nl = fx.kernel;
  const gate::EvalProgram prog(nl);
  const gate::LaneBackend* scalar = &gate::scalar_lane_backend();

  // Raw W*64-lane sweep wall time (min of 3 repeats). Sources are seeded
  // once and one input word is flipped per block (O(1)): reseeding every
  // source per block would drown the wide sweeps in scalar PRNG work and
  // measure the generator, not the datapath. The sink checksum only keeps
  // the loop alive; cross-width identity is raw_slice_identity.
  const auto raw_ms_for = [&](const gate::LaneBackend* lb) {
    const std::size_t w = static_cast<std::size_t>(lb->words);
    std::vector<std::uint64_t> vals(nl.net_count() * w);
    Xoshiro256 rng(77);
    for (std::size_t j = 0; j < w; ++j) seed_sources(nl, rng, vals, w, j);
    const std::vector<gate::NetId>& ins = nl.inputs();
    std::uint64_t sink = 0;
    double best = -1;
    for (int r = 0; r < 3; ++r) {
      const Clock::time_point t0 = Clock::now();
      for (int b = 0; b < blocks; ++b) {
        if (!ins.empty())
          vals[static_cast<std::size_t>(ins[b % ins.size()]) * w +
               (static_cast<std::size_t>(b) % w)] ^= 0x9e3779b97f4a7c15ull;
        lb->run_range(prog.view(), 0, prog.size(), vals.data());
        for (gate::NetId o : nl.outputs())
          sink ^= vals[static_cast<std::size_t>(o) * w];
      }
      const double ms = ms_since(t0);
      if (best < 0 || ms < best) best = ms;
    }
    g_sink = sink;
    return best;
  };

  const double scalar_raw_ms = raw_ms_for(scalar);

  obs::Json rows = obs::Json::array();
  const gate::LaneBackend* widest = scalar;
  double widest_raw_speedup = 1.0;
  for (const gate::LaneBackend* lb : gate::all_lane_backends()) {
    if (only && lb != scalar && lb != only) continue;
    obs::Json row = obs::Json::object();
    row["backend"] = lb->name;
    row["words"] = lb->words;
    row["lanes"] = lb->lanes;
    row["supported"] = lb->supported();
    if (!lb->supported()) {
      rows.push_back(std::move(row));
      std::cerr << "  backend " << lb->name << ": not supported on this CPU\n";
      continue;
    }

    const bool slice_ok = raw_slice_identity(nl, prog, lb);
    gate_check(slice_ok, std::string("raw sweep word slices identical (") +
                             lb->name + " vs scalar64)");

    double raw_ms = lb == scalar ? scalar_raw_ms : raw_ms_for(lb);
    const double mpat_s =
        raw_ms > 0 ? static_cast<double>(blocks) * lb->lanes / (raw_ms / 1e3) /
                         1e6
                   : 0.0;
    // Throughput-relative: (lanes/ms) / (64/ms_scalar64).
    const double raw_tp_speedup =
        scalar_raw_ms > 0 && raw_ms > 0
            ? (lb->lanes / raw_ms) / (64.0 / scalar_raw_ms)
            : 0.0;

    row["raw_ms"] = raw_ms;
    row["raw_mpatterns_per_s"] = mpat_s;
    row["raw_speedup_vs_scalar64"] = raw_tp_speedup;
    rows.push_back(std::move(row));
    std::cerr << "  backend " << lb->name << ": raw " << raw_ms << " ms ("
              << mpat_s << " Mpat/s, " << raw_tp_speedup << "x scalar64)\n";
    if (lb->words > widest->words) {
      widest = lb;
      widest_raw_speedup = raw_tp_speedup;
    }
  }

  // The SIMD acceptance criterion: only meaningful when the matrix includes
  // a wide backend and we actually timed it.
  if (measure && widest != scalar)
    gate_check(widest_raw_speedup >= 2.0,
               std::string("widest backend (") + widest->name +
                   ") raw sweep >= 2x scalar64 throughput");

  return rows;
}

/// Single-thread PPSFP wall time (min of 3 repeats), plus the 1-vs-4-thread
/// curve identity gate.
obs::Json bench_fault_sim(const Fixture& fx, std::int64_t patterns,
                          bool measure) {
  const fault::FaultList faults = fault::FaultList::collapsed(fx.kernel);

  const auto run = [&](int threads, double* wall_ms) {
    fault::FaultSimulator sim(fx.kernel, faults);
    sim.set_threads(threads);
    Xoshiro256 rng(1994);
    const Clock::time_point t0 = Clock::now();
    fault::CoverageCurve c = sim.run_random(
        rng, patterns, std::numeric_limits<std::int64_t>::max());
    if (wall_ms) *wall_ms = ms_since(t0);
    return c;
  };

  double serial_ms = 0;
  const fault::CoverageCurve serial = run(1, &serial_ms);
  if (measure) {
    // Keep the fastest of a few repeats (timer noise, 1-core CI).
    for (int r = 1; r < 3; ++r) {
      double ms = 0;
      run(1, &ms);
      serial_ms = std::min(serial_ms, ms);
    }
  }

  const fault::CoverageCurve threaded = run(4, nullptr);
  gate_check(same_curve(serial, threaded),
             "fault-sim curves identical (1 vs 4 threads)");

  obs::Json row = obs::Json::object();
  row["faults"] = static_cast<std::int64_t>(faults.size());
  row["faults_full"] = static_cast<std::int64_t>(faults.full_size());
  row["patterns"] = patterns;
  row["coverage"] = serial.coverage();
  row["ms"] = serial_ms;
  if (measure) std::cerr << "  fault_sim: " << serial_ms << " ms\n";
  return row;
}

/// BIST session identity: signatures, detection flags and checkpoints must
/// be bit-identical at 1 and 4 threads, and across batch lane widths.
obs::Json bench_session(const Fixture& fx, std::int64_t cycles) {
  obs::Json row = obs::Json::object();
  if (!fx.first_kernel) {
    row["skipped"] = true;
    return row;
  }
  const auto run = [&](int threads, int batch_lanes,
                       rt::SessionCheckpoint* ckpt) {
    sim::BistSession session(fx.n, fx.elab, fx.design.bilbo,
                             *fx.first_kernel);
    session.set_threads(threads);
    session.set_batch_lanes(batch_lanes);
    const fault::FaultList faults = session.kernel_faults();
    return session.run(faults, cycles, {}, nullptr, ckpt);
  };
  rt::SessionCheckpoint ck1, ck4;
  const sim::SessionReport r1 = run(1, 64, &ck1);
  const sim::SessionReport r4 = run(4, 64, &ck4);
  gate_check(r1.golden_signatures == r4.golden_signatures,
             "session MISR signatures identical (1 vs 4 threads)");
  gate_check(r1.detected_at_outputs == r4.detected_at_outputs &&
                 r1.detected_by_signature == r4.detected_by_signature &&
                 r1.aliased == r4.aliased,
             "session detection counts identical (1 vs 4 threads)");
  gate_check(ck1.to_json().dump() == ck4.to_json().dump(),
             "session checkpoints identical (1 vs 4 threads)");
  const gate::LaneBackend& active = gate::active_lane_backend();
  if (active.words > 1) {
    const sim::SessionReport rw = run(1, active.lanes, nullptr);
    gate_check(rw == r1, std::string("session reports identical (") +
                             active.name + " vs 64-lane batches)");
  }
  row["cycles"] = cycles;
  row["signatures"] = static_cast<std::int64_t>(r1.golden_signatures.size());
  row["detected_by_signature"] =
      static_cast<std::int64_t>(r1.detected_by_signature);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, lanes_name;
  bool check_only = false;
  // Table 2 of the paper applies 2^16 patterns to these kernels; 8192 keeps
  // the bench fast while staying in the regime where the random-resistant
  // tail (small live fault set, good-eval-heavy blocks) shows up.
  std::int64_t patterns = 8192;
  std::int64_t cycles = 512;
  int blocks = 256;
  const auto usage = [](int code) {
    std::cerr << "usage: bench_kernel [--out FILE] [--check]"
                 " [--lanes scalar64|avx512]"
                 " [--patterns N] [--cycles N] [--blocks N]\n";
    return code;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(usage(64));
      }
      return argv[++i];
    };
    // A malformed or non-positive count is a usage error, never a silent 0.
    const auto count = [&]<typename T>(T& out) {
      const std::string v = value();
      if (!parse_number<T>(v, 1, std::numeric_limits<T>::max(), out)) {
        std::cerr << "invalid value for " << arg << ": '" << v << "'\n";
        std::exit(usage(64));
      }
    };
    if (arg == "--out") out_path = value();
    else if (arg == "--check") check_only = true;
    else if (arg == "--lanes") lanes_name = value();
    else if (arg == "--patterns") count(patterns);
    else if (arg == "--cycles") count(cycles);
    else if (arg == "--blocks") count(blocks);
    else return usage(arg == "--help" || arg == "-h" ? 0 : 64);
  }
  const gate::LaneBackend* only = nullptr;
  if (!lanes_name.empty()) {
    only = gate::find_lane_backend(lanes_name);
    if (!only) {
      std::cerr << "unknown lane backend '" << lanes_name
                << "' (compiled in:";
      for (const gate::LaneBackend* lb : gate::all_lane_backends())
        std::cerr << " " << lb->name;
      std::cerr << ")\n";
      return 64;
    }
    if (!only->supported()) {
      // ctest SKIP_RETURN_CODE: the backend is compiled in but this CPU
      // cannot run it — a skip, not a failure.
      std::cerr << "lane backend '" << lanes_name
                << "' is not supported on this CPU; skipping\n";
      return 77;
    }
    gate::set_lane_backend(only);
  }
  if (check_only) {
    // Identity gates only: smaller workloads, no timing thresholds.
    patterns = std::min<std::int64_t>(patterns, 512);
    cycles = std::min<std::int64_t>(cycles, 128);
    blocks = std::min(blocks, 16);
  }

  const Fixture fx;
  std::cerr << (check_only ? "kernel identity check:" : "kernel bench:")
            << "\n";

  obs::Json doc = obs::Json::object();
  doc["kind"] = "bibs.kernel_bench";
  doc["version"] = 5;
#ifdef BIBS_NATIVE_ENABLED
  doc["native"] = true;
#else
  doc["native"] = false;
#endif
  doc["git"] = obs::Report::collect().git_describe;
  doc["circuit"] = "c5a2m";
  doc["active_lanes"] = gate::active_lane_backend().name;

  if (!check_only) doc["raw"] = bench_raw(fx, blocks);
  doc["backends"] = bench_backends(fx, blocks, !check_only, only);
  doc["fault_sim"] = bench_fault_sim(fx, patterns, !check_only);
  doc["session"] = bench_session(fx, cycles);

  if (g_failures > 0) {
    std::cerr << g_failures << " identity/threshold gate(s) FAILED\n";
    return 1;
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << doc.dump() << "\n";
    std::cerr << "wrote " << out_path << "\n";
  }
  return 0;
}
