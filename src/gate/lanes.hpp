#pragma once
// Lane-width-parameterized evaluation backends: the one gate-eval kernel of
// gate::EvalProgram (EvalProgram::run forwards to scalar64), instantiated at
// W consecutive 64-bit words per net (W*64 lanes per sweep) behind a
// runtime-dispatched backend table:
//
//   scalar64   W=1, always compiled; EvalProgram::run, the PPSFP fault
//              simulator, the curve oracles and every test gate run it;
//   avx512     W=8 (512-bit), compiled in a TU built with -mavx512f; the
//              LaneEngine session batches and the miter sweeps run it.
//
// Both are the same plain C++ loops over LaneWord<W> (lanes_impl.hpp) — GCC
// auto-vectorizes the fixed-W inner ops to the TU's ISA. Each width is
// instantiated in exactly one TU (lanes.cpp / lanes_avx512.cpp) so no other
// translation unit can emit a scalar copy of the wide kernel and win the ODR
// coin toss. gate::reference_eval (program.hpp) is the independent
// gate-by-gate reference both widths are checked against.
//
// Wide value arrays use a strided layout: net n owns words
// [n*W, n*W + W), lane l of pattern block p lives in word p/64 bit p%64.
// Lane 0..63 of word 0 are bit-identical to the scalar64 words, which is
// what the bit-identity gates (bench_kernel --check, tests/lanes_test.cpp)
// compare against.
//
// Single-fault propagation (propagate_fault) is not a backend slot: the
// fault simulator runs 64-pattern blocks only, so it is one scalar function.
//
// Backend selection: active_lane_backend() latches the widest backend the
// CPU supports, overridable with BIBS_LANES=scalar64|avx512 (or the
// --lanes flag of the bench/CLI tools, which calls set_lane_backend). The
// resolved name is surfaced in obs run reports under the "lanes" label.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gate/program.hpp"

namespace bibs::gate {

/// Pattern lanes carried by one 64-bit word (the scalar64 block size).
inline constexpr int kLanesPerWord = 64;

/// W consecutive 64-bit words treated as one W*64-lane value. Plain
/// fixed-size loops: the avx512 TU's ISA flags turn them into 512-bit
/// vector ops.
template <int W>
struct alignas(8 * W) LaneWord {
  static_assert(W >= 1 && W <= 8 && (W & (W - 1)) == 0,
                "lane words are power-of-two runs of uint64");
  std::uint64_t w[W];

  static LaneWord load(const std::uint64_t* p) {
    LaneWord r;
    for (int j = 0; j < W; ++j) r.w[j] = p[j];
    return r;
  }
  static LaneWord broadcast(std::uint64_t x) {
    LaneWord r;
    for (int j = 0; j < W; ++j) r.w[j] = x;
    return r;
  }
  static LaneWord zero() { return broadcast(0); }
  static LaneWord ones() { return broadcast(~0ull); }

  void store(std::uint64_t* p) const {
    for (int j = 0; j < W; ++j) p[j] = w[j];
  }

  friend LaneWord operator&(LaneWord a, LaneWord b) {
    for (int j = 0; j < W; ++j) a.w[j] &= b.w[j];
    return a;
  }
  friend LaneWord operator|(LaneWord a, LaneWord b) {
    for (int j = 0; j < W; ++j) a.w[j] |= b.w[j];
    return a;
  }
  friend LaneWord operator^(LaneWord a, LaneWord b) {
    for (int j = 0; j < W; ++j) a.w[j] ^= b.w[j];
    return a;
  }
  friend LaneWord operator~(LaneWord a) {
    for (int j = 0; j < W; ++j) a.w[j] = ~a.w[j];
    return a;
  }
  /// a & ~b — the mask blends of fault injection.
  LaneWord andnot(LaneWord b) const {
    LaneWord a = *this;
    for (int j = 0; j < W; ++j) a.w[j] &= ~b.w[j];
    return a;
  }
  friend bool operator==(const LaneWord& a, const LaneWord& b) {
    std::uint64_t d = 0;
    for (int j = 0; j < W; ++j) d |= a.w[j] ^ b.w[j];
    return d == 0;
  }
  bool any() const {
    std::uint64_t d = 0;
    for (int j = 0; j < W; ++j) d |= w[j];
    return d != 0;
  }
};

/// One stuck-at fault site handed to propagate_fault. `instr` is the
/// injection instruction for pin faults (EvalProgram::kNoInstr for stems).
struct LaneFaultSite {
  NetId net;
  int pin;  // < 0: output stem fault
  std::uint32_t instr;
  bool stuck;
};

/// Read-only context shared by every fault a worker propagates within one
/// 64-pattern block: one word per net, `lane_mask` masks the valid lanes.
struct LanePropagateCtx {
  ProgramView pv;
  std::size_t n_instr;
  const std::uint64_t* good;   // net_count words
  std::uint64_t* cur;          // worker scratch, == good between faults
  const char* observed;        // per net: is a PO
  std::uint64_t* dirty;        // one bit per instruction, zero between faults
  std::uint64_t lane_mask;
};

/// Event-driven single-fault propagation over the fanout cone of one
/// 64-pattern block; returns the per-lane detection word (masked by
/// ctx.lane_mask) and restores ctx.cur to ctx.good. `changed` is scratch for
/// at least net_count entries.
std::uint64_t propagate_fault(const LanePropagateCtx& ctx,
                              const LaneFaultSite& f, NetId* changed);

/// One evaluation backend: name, width, CPUID gate and the three kernels.
/// All value pointers are W-strided arrays (net n at words [n*W, n*W+W)).
struct LaneBackend {
  const char* name;
  int words;  // 64-bit words per lane block (W)
  int lanes;  // words * kLanesPerWord — patterns per block
  /// CPU supports this backend's ISA (checked at dispatch, not compile).
  bool (*supported)();
  /// Evaluates instructions [begin, end) into `values`.
  void (*run_range)(const ProgramView& pv, std::size_t begin, std::size_t end,
                    std::uint64_t* values);
  /// Evaluates instruction i into out[0..W) without writing its output net.
  void (*eval_one)(const ProgramView& pv, std::size_t i,
                   const std::uint64_t* values, std::uint64_t* out);
  /// Same, with fan-in `pin` forced to forced[0..W).
  void (*eval_one_forced)(const ProgramView& pv, std::size_t i,
                          const std::uint64_t* values, int pin,
                          const std::uint64_t* forced, std::uint64_t* out);
};

/// The W=1 backend (always compiled, always supported); EvalProgram::run
/// forwards to its run_range.
const LaneBackend& scalar_lane_backend();

/// Every backend compiled into this binary (scalar64 first, then ascending
/// width). Unsupported-on-this-CPU entries are included: callers gate on
/// supported() so tests can assert the fallback order.
const std::vector<const LaneBackend*>& all_lane_backends();

/// Backend by name ("scalar64", "avx512"); nullptr if the name is
/// unknown or the backend was not compiled in.
const LaneBackend* find_lane_backend(const std::string& name);

/// Compiled-in, CPU-supported backend with exactly `lanes` pattern lanes
/// per block; nullptr if none matches.
const LaneBackend* lane_backend_for_lanes(int lanes);

/// The process-wide active backend. Resolved once on first use: the
/// BIBS_LANES environment override if set (throws DesignError on an
/// unknown or CPU-unsupported name), else the widest supported backend.
/// The resolved name is recorded as the "lanes" obs report label.
const LaneBackend& active_lane_backend();

/// Overrides the active backend (bench --lanes, tests). Throws DesignError
/// if `backend` is not supported on this CPU. Passing nullptr drops the
/// latch so the next active_lane_backend() re-resolves from BIBS_LANES /
/// CPUID.
void set_lane_backend(const LaneBackend* backend);

}  // namespace bibs::gate
