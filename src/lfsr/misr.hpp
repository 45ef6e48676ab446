#pragma once
// Multiple-input signature register: the signature-analysis half of a BILBO.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "lfsr/polynomial.hpp"

namespace bibs::lfsr {

/// An n-stage MISR built on the same type-1 feedback structure as Type1Lfsr;
/// every clock the response vector is XORed stage-wise into the shifting
/// state. After the test the state is the signature.
class Misr {
 public:
  explicit Misr(Gf2Poly poly);

  int stages() const { return n_; }
  const BitVec& state() const { return state_; }
  void set_state(const BitVec& s);
  void reset() { state_.clear(); }

  /// Compresses one parallel response word (`inputs.size() == stages()`).
  void step(const BitVec& inputs);

  /// Signature as an integer (stage 1 = LSB); only valid for n <= 64.
  std::uint64_t signature() const;

 private:
  Gf2Poly poly_;
  int n_;
  BitVec state_;
};

/// The same n-stage type-1 MISR run bit-sliced over W*64 independent lanes:
/// stage k holds W 64-bit words with lane l at word l/64, bit l%64 — the
/// sim::LaneEngine value layout — so one step compacts every lane's
/// response with n*W word XORs and no allocation. Per lane it matches
/// Misr::step bit for bit.
class LaneMisr {
 public:
  LaneMisr(Gf2Poly poly, std::size_t words);

  /// Compresses one response per lane: `in[i]` points at the W words of
  /// stage i+1's input (`in.size() == stages()`).
  void step(std::span<const std::uint64_t* const> in);

  /// One lane's signature (stage 1 = LSB); only valid for n <= 64.
  std::uint64_t signature(std::size_t lane) const;

  /// W words, bit l set iff lane l's state differs from lane 0's in some
  /// stage — lane 0's own bit is always clear.
  std::vector<std::uint64_t> lanes_differing_from_lane0() const;

 private:
  int n_;
  std::size_t w_;
  std::vector<int> taps_;             // 0-based stages feeding back
  std::vector<std::uint64_t> state_;  // stage k at words [k*W, k*W + W)
  std::vector<std::uint64_t> fb_;     // per-step feedback scratch
};

}  // namespace bibs::lfsr
