#pragma once
// Width-templated kernel bodies behind the LaneBackend tables — the only
// compiled gate-eval kernel (gate::reference_eval is the independent
// reference it is checked against). lanes.cpp also builds the scalar fault
// propagation (gate::propagate_fault) from the W=1 bodies.
//
// Included ONLY by the per-backend TUs (lanes.cpp at W=1, lanes_avx512.cpp
// at W=8), each built with its ISA flags. Every width must be instantiated
// in exactly one TU: these are ordinary function templates, and a second
// instantiation in a TU without the ISA flags would be ODR-merged with the
// vectorized one arbitrarily.
//
// Net indices are scaled by W and every value is a LaneWord<W>; at W=1 a
// LaneWord is one std::uint64_t, so lane 0..63 of every width compute the
// same bits.

#include <cstddef>
#include <cstdint>

#include "gate/lanes.hpp"

namespace bibs::gate::lanes_detail {

template <int W>
inline LaneWord<W> lw(const std::uint64_t* v, NetId n) {
  return LaneWord<W>::load(v + static_cast<std::size_t>(n) * W);
}

// always_inline: gcc otherwise leaves the opcode switch out of line, and the
// per-instruction call (plus a vzeroupper per iteration in the AVX-512 TU)
// costs more than the gate evaluation itself.
template <int W>
[[gnu::always_inline]] inline LaneWord<W> eval_one_w(const ProgramView& pv,
                                                     std::size_t i,
                                                     const std::uint64_t* v) {
  const NetId* fi = pv.fanin + pv.off[i];
  switch (pv.op[i]) {
    case Op::kBuf: return lw<W>(v, fi[0]);
    case Op::kNot: return ~lw<W>(v, fi[0]);
    case Op::kAnd2: return lw<W>(v, fi[0]) & lw<W>(v, fi[1]);
    case Op::kNand2: return ~(lw<W>(v, fi[0]) & lw<W>(v, fi[1]));
    case Op::kOr2: return lw<W>(v, fi[0]) | lw<W>(v, fi[1]);
    case Op::kNor2: return ~(lw<W>(v, fi[0]) | lw<W>(v, fi[1]));
    case Op::kXor2: return lw<W>(v, fi[0]) ^ lw<W>(v, fi[1]);
    case Op::kXnor2: return ~(lw<W>(v, fi[0]) ^ lw<W>(v, fi[1]));
    default: break;
  }
  const std::uint32_t n = pv.off[i + 1] - pv.off[i];
  LaneWord<W> r = lw<W>(v, fi[0]);
  switch (pv.op[i]) {
    case Op::kAndN:
    case Op::kNandN:
      for (std::uint32_t k = 1; k < n; ++k) r = r & lw<W>(v, fi[k]);
      return pv.op[i] == Op::kNandN ? ~r : r;
    case Op::kOrN:
    case Op::kNorN:
      for (std::uint32_t k = 1; k < n; ++k) r = r | lw<W>(v, fi[k]);
      return pv.op[i] == Op::kNorN ? ~r : r;
    default:
      for (std::uint32_t k = 1; k < n; ++k) r = r ^ lw<W>(v, fi[k]);
      return pv.op[i] == Op::kXnorN ? ~r : r;
  }
}

template <int W>
[[gnu::always_inline]] inline LaneWord<W> eval_one_forced_w(
    const ProgramView& pv, std::size_t i, const std::uint64_t* v, int pin,
    LaneWord<W> forced) {
  const NetId* fi = pv.fanin + pv.off[i];
  const std::uint32_t n = pv.off[i + 1] - pv.off[i];
  const std::uint32_t p = static_cast<std::uint32_t>(pin);
  const auto in = [&](std::uint32_t k) {
    return k == p ? forced : lw<W>(v, fi[k]);
  };
  LaneWord<W> r = in(0);
  switch (pv.op[i]) {
    case Op::kBuf: return r;
    case Op::kNot: return ~r;
    case Op::kAnd2:
    case Op::kNand2:
    case Op::kAndN:
    case Op::kNandN:
      for (std::uint32_t k = 1; k < n; ++k) r = r & in(k);
      return pv.op[i] == Op::kNand2 || pv.op[i] == Op::kNandN ? ~r : r;
    case Op::kOr2:
    case Op::kNor2:
    case Op::kOrN:
    case Op::kNorN:
      for (std::uint32_t k = 1; k < n; ++k) r = r | in(k);
      return pv.op[i] == Op::kNor2 || pv.op[i] == Op::kNorN ? ~r : r;
    default:
      for (std::uint32_t k = 1; k < n; ++k) r = r ^ in(k);
      return pv.op[i] == Op::kXnor2 || pv.op[i] == Op::kXnorN ? ~r : r;
  }
}

template <int W>
void run_range_w(const ProgramView& pv, std::size_t begin, std::size_t end,
                 std::uint64_t* v) {
  for (std::size_t i = begin; i < end; ++i) {
    const LaneWord<W> r = eval_one_w<W>(pv, i, v);
    r.store(v + static_cast<std::size_t>(pv.out[i]) * W);
  }
}

template <int W>
void eval_one_entry(const ProgramView& pv, std::size_t i,
                    const std::uint64_t* values, std::uint64_t* out) {
  eval_one_w<W>(pv, i, values).store(out);
}

template <int W>
void eval_one_forced_entry(const ProgramView& pv, std::size_t i,
                           const std::uint64_t* values, int pin,
                           const std::uint64_t* forced, std::uint64_t* out) {
  eval_one_forced_w<W>(pv, i, values, pin, LaneWord<W>::load(forced))
      .store(out);
}

template <int W>
LaneBackend make_lane_backend(const char* name, bool (*supported)()) {
  return LaneBackend{name,
                     W,
                     W * kLanesPerWord,
                     supported,
                     &run_range_w<W>,
                     &eval_one_entry<W>,
                     &eval_one_forced_entry<W>};
}

}  // namespace bibs::gate::lanes_detail
