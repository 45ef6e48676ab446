// Tests for GF(2) polynomials, type-1 LFSRs, complete LFSRs, MISRs and the
// BILBO register model.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "lfsr/bilbo.hpp"
#include "lfsr/lfsr.hpp"
#include "lfsr/misr.hpp"
#include "lfsr/polynomial.hpp"

namespace bibs::lfsr {
namespace {

TEST(Gf2Poly, DegreeAndCoeffs) {
  const Gf2Poly p = Gf2Poly::from_exponents({12, 7, 4, 3, 0});
  EXPECT_EQ(p.degree(), 12);
  EXPECT_TRUE(p.coeff(12));
  EXPECT_TRUE(p.coeff(7));
  EXPECT_TRUE(p.coeff(0));
  EXPECT_FALSE(p.coeff(5));
  EXPECT_EQ(p.to_string(), "x^12 + x^7 + x^4 + x^3 + 1");
}

TEST(Gf2Poly, ZeroPoly) {
  Gf2Poly z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.degree(), -1);
  EXPECT_EQ(z.to_string(), "0");
}

TEST(Gf2Poly, MulmodBasics) {
  // Mod x^3 + x + 1 (GF(8)): x * x^2 = x^3 = x + 1.
  const Gf2Poly p = Gf2Poly::from_exponents({3, 1, 0});
  const Gf2Poly r = mulmod(Gf2Poly(0b010), Gf2Poly(0b100), p);
  EXPECT_EQ(r.mask(), 0b011u);
}

TEST(Gf2Poly, PowmodMatchesRepeatedMul) {
  const Gf2Poly p = primitive_polynomial(8);
  Gf2Poly acc(1);
  const Gf2Poly x(2);
  for (int e = 0; e <= 40; ++e) {
    EXPECT_EQ(powmod(x, static_cast<std::uint64_t>(e), p).mask(), acc.mask())
        << "e=" << e;
    acc = mulmod(acc, x, p);
  }
}

TEST(Gf2Poly, PowmodOrderOfPrimitive) {
  const Gf2Poly p = primitive_polynomial(10);
  // x^(2^10-1) == 1 and x^k != 1 for proper divisors of 1023 = 3*11*31.
  EXPECT_EQ(powmod(Gf2Poly(2), 1023, p).mask(), 1u);
  for (std::uint64_t d : {341u, 93u, 33u})
    EXPECT_NE(powmod(Gf2Poly(2), d, p).mask(), 1u) << d;
}

TEST(PrimitiveTable, EveryEntryIsPrimitive) {
  // Brute force for small degrees...
  for (int deg = 1; deg <= 18; ++deg)
    EXPECT_TRUE(is_primitive_bruteforce(primitive_polynomial(deg)))
        << "degree " << deg;
}

TEST(PrimitiveTable, LargerDegreesByPeriodSampling) {
  // ...and order-divisor checks for the rest (x^(2^n-1) = 1, and != 1 at
  // the (2^n-1)/q points for each small prime factor we can test quickly).
  struct Case {
    int deg;
    std::vector<std::uint64_t> proper_divisors;
  };
  const std::vector<Case> cases = {
      {19, {524287 / 524287}},  // 2^19-1 is prime; only check full order
      {20, {1048575 / 3, 1048575 / 5, 1048575 / 11, 1048575 / 31,
            1048575 / 41}},
      {24, {16777215 / 3, 16777215 / 5, 16777215 / 7, 16777215 / 13,
            16777215 / 17, 16777215 / 241}},
      {31, {1}},  // 2^31-1 prime
      {32, {4294967295ull / 3, 4294967295ull / 5, 4294967295ull / 17,
            4294967295ull / 257, 4294967295ull / 65537}},
  };
  for (const Case& c : cases) {
    const Gf2Poly p = primitive_polynomial(c.deg);
    const std::uint64_t full = (1ull << c.deg) - 1;
    EXPECT_EQ(powmod(Gf2Poly(2), full, p).mask(), 1u) << c.deg;
    for (std::uint64_t d : c.proper_divisors) {
      if (d > 1 && d < full) {
        EXPECT_NE(powmod(Gf2Poly(2), d, p).mask(), 1u)
            << "deg " << c.deg << " divisor " << d;
      }
    }
  }
}

TEST(PrimitiveTable, RejectsUnsupportedDegrees) {
  EXPECT_THROW(primitive_polynomial(0), DesignError);
  EXPECT_THROW(primitive_polynomial(-3), DesignError);
  EXPECT_THROW(primitive_polynomial(max_supported_degree() + 1), DesignError);
}

class LfsrPeriod : public ::testing::TestWithParam<int> {};

TEST_P(LfsrPeriod, MaximalLength) {
  const int deg = GetParam();
  Type1Lfsr l(primitive_polynomial(deg));
  EXPECT_EQ(l.measure_period(1ull << (deg + 1)), (1ull << deg) - 1);
}

INSTANTIATE_TEST_SUITE_P(Degrees, LfsrPeriod,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(Type1Lfsr, ShiftProperty) {
  // Stage i at time t equals stage i-1 at time t-1 — the property every TPG
  // construction in the paper rests on.
  Type1Lfsr l(primitive_polynomial(8));
  for (int t = 0; t < 300; ++t) {
    const BitVec before = l.state();
    l.step();
    const BitVec after = l.state();
    for (int i = 2; i <= 8; ++i)
      EXPECT_EQ(after.get(static_cast<std::size_t>(i - 1)),
                before.get(static_cast<std::size_t>(i - 2)))
          << "t=" << t << " i=" << i;
  }
}

TEST(Type1Lfsr, NonzeroStatesOnly) {
  Type1Lfsr l(primitive_polynomial(6));
  for (int t = 0; t < 63; ++t) {
    EXPECT_TRUE(l.state().any());
    l.step();
  }
}

TEST(Type1Lfsr, EveryStateVisitedOnce) {
  Type1Lfsr l(primitive_polynomial(10));
  std::set<std::string> seen;
  for (int t = 0; t < 1023; ++t) {
    EXPECT_TRUE(seen.insert(l.state().to_string()).second);
    l.step();
  }
  EXPECT_EQ(seen.size(), 1023u);
}

TEST(Type1Lfsr, SetStateRejectsWrongWidth) {
  Type1Lfsr l(primitive_polynomial(8));
  EXPECT_THROW(l.set_state(BitVec(7)), InternalError);
}

class CompletePeriod : public ::testing::TestWithParam<int> {};

TEST_P(CompletePeriod, DeBruijnPeriodIsPowerOfTwo) {
  const int deg = GetParam();
  CompleteLfsr l(primitive_polynomial(deg));
  EXPECT_EQ(l.measure_period(1ull << (deg + 1)), 1ull << deg);
}

INSTANTIATE_TEST_SUITE_P(Degrees, CompletePeriod,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 10, 12));

TEST(CompleteLfsr, VisitsAllZeroState) {
  CompleteLfsr l(primitive_polynomial(5));
  bool saw_zero = false;
  for (int t = 0; t < 32; ++t) {
    if (l.state().none()) saw_zero = true;
    l.step();
  }
  EXPECT_TRUE(saw_zero);
}

TEST(ShiftRegister, DelaysByExactlyN) {
  ShiftRegister sr(4);
  std::vector<bool> in = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0};
  std::vector<bool> out;
  for (bool b : in) out.push_back(sr.step(b));
  // First 4 outputs are the initial zero state, then the input delayed by 4.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(out[static_cast<std::size_t>(i)]);
  for (std::size_t i = 4; i < in.size(); ++i)
    EXPECT_EQ(out[i], in[i - 4]) << i;
}

TEST(Misr, DistinctStreamsGiveDistinctSignaturesUsually) {
  Misr a(primitive_polynomial(8)), b(primitive_polynomial(8));
  bibs::Xoshiro256 rng(5);
  for (int t = 0; t < 100; ++t) {
    BitVec w(8);
    w.deposit(0, 8, rng.next() & 0xFF);
    a.step(w);
    BitVec w2 = w;
    if (t == 50) w2.set(3, !w2.get(3));  // single corrupted response
    b.step(w2);
  }
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, LinearityOverGf2) {
  // MISR compaction is linear: sig(x ^ y) == sig(x) ^ sig(y) from zero state.
  bibs::Xoshiro256 rng(11);
  std::vector<BitVec> xs, ys;
  for (int t = 0; t < 40; ++t) {
    BitVec x(8), y(8);
    x.deposit(0, 8, rng.next() & 0xFF);
    y.deposit(0, 8, rng.next() & 0xFF);
    xs.push_back(x);
    ys.push_back(y);
  }
  Misr mx(primitive_polynomial(8)), my(primitive_polynomial(8)),
      mxy(primitive_polynomial(8));
  for (int t = 0; t < 40; ++t) {
    mx.step(xs[static_cast<std::size_t>(t)]);
    my.step(ys[static_cast<std::size_t>(t)]);
    BitVec z(8);
    for (std::size_t i = 0; i < 8; ++i)
      z.set(i, xs[static_cast<std::size_t>(t)].get(i) ^
                   ys[static_cast<std::size_t>(t)].get(i));
    mxy.step(z);
  }
  EXPECT_EQ(mxy.signature(), mx.signature() ^ my.signature());
}

TEST(Misr, AliasingRateNearTwoToMinusN) {
  // Random error streams alias with probability ~2^-n; with n = 8 and 2000
  // trials expect roughly 8 aliases. Bound loosely.
  bibs::Xoshiro256 rng(23);
  int aliased = 0;
  const int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    Misr good(primitive_polynomial(8)), bad(primitive_polynomial(8));
    for (int t = 0; t < 30; ++t) {
      BitVec w(8), e(8);
      w.deposit(0, 8, rng.next() & 0xFF);
      e.deposit(0, 8, rng.next() & 0xFF);  // random error every cycle
      good.step(w);
      BitVec we(8);
      for (std::size_t i = 0; i < 8; ++i) we.set(i, w.get(i) ^ e.get(i));
      bad.step(we);
    }
    if (good.signature() == bad.signature()) ++aliased;
  }
  EXPECT_LT(aliased, 30);  // ~2000/256 = 7.8 expected
}

// Lane-sliced vs scalar: W*64 independent Misrs fed the same random
// responses must give LaneMisr's per-lane signatures and its
// differs-from-lane-0 mask. One lane in the last word carries lane 0's
// response XOR an error stream that cancels inside the register (a stage-1
// error, then the one error word that returns the difference state to
// zero), so it aliases: its mask bit must clear and Misr must agree.
void expect_lane_misr_matches_misr(int degree, std::size_t words) {
  SCOPED_TRACE("degree " + std::to_string(degree) + ", W " +
               std::to_string(words));
  const Gf2Poly p = primitive_polynomial(degree);
  const std::size_t n = static_cast<std::size_t>(degree);
  const std::size_t lanes = words * 64;
  const std::size_t alias_lane = lanes - 3;
  const int cycles = 300;

  std::vector<BitVec> err(cycles, BitVec(n));
  err[10].set(0, true);
  Misr diff(p);
  for (int t = 0; t < cycles; ++t) {
    if (t == 13 + degree) {
      Misr next = diff;
      next.step(BitVec(n));
      err[static_cast<std::size_t>(t)] = next.state();
    }
    diff.step(err[static_cast<std::size_t>(t)]);
  }
  ASSERT_TRUE(diff.state().none());

  const auto bit = [](const std::uint64_t* w, std::size_t lane) {
    return ((w[lane >> 6] >> (lane & 63)) & 1u) != 0;
  };
  LaneMisr lane_misr(p, words);
  std::vector<Misr> ref(lanes, Misr(p));
  std::vector<std::uint64_t> in(n * words);
  std::vector<const std::uint64_t*> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = in.data() + i * words;
  bibs::Xoshiro256 rng(static_cast<std::uint64_t>(degree) * 131 + words);
  for (int t = 0; t < cycles; ++t) {
    for (std::uint64_t& x : in) x = rng.next();
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t& w = in[i * words + (alias_lane >> 6)];
      const bool v = bit(rows[i], 0) ^ err[static_cast<std::size_t>(t)].get(i);
      w = (w & ~(1ull << (alias_lane & 63))) |
          (static_cast<std::uint64_t>(v) << (alias_lane & 63));
    }
    lane_misr.step(rows);
    for (std::size_t l = 0; l < lanes; ++l) {
      BitVec v(n);
      for (std::size_t i = 0; i < n; ++i) v.set(i, bit(rows[i], l));
      ref[l].step(v);
    }
  }

  const std::vector<std::uint64_t> differs =
      lane_misr.lanes_differing_from_lane0();
  ASSERT_EQ(differs.size(), words);
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_EQ(lane_misr.signature(l), ref[l].signature()) << "lane " << l;
    EXPECT_EQ(bit(differs.data(), l),
              ref[l].signature() != ref[0].signature())
        << "lane " << l;
  }
  EXPECT_EQ(ref[alias_lane].signature(), ref[0].signature());
  EXPECT_FALSE(bit(differs.data(), alias_lane));
}

TEST(LaneMisr, MatchesScalarMisrPerLaneOneWord) {
  for (int degree : {1, 8, 12, 33, 64})
    expect_lane_misr_matches_misr(degree, 1);
}

TEST(LaneMisr, MatchesScalarMisrPerLaneEightWords) {
  for (int degree : {1, 8, 12, 33, 64})
    expect_lane_misr_matches_misr(degree, 8);
}

TEST(Bilbo, NormalModeLoadsParallel) {
  Bilbo b(8);
  b.set_mode(BilboMode::kNormal);
  BitVec in(8);
  in.deposit(0, 8, 0xA5);
  b.step(in);
  EXPECT_EQ(b.state().extract(0, 8), 0xA5u);
}

TEST(Bilbo, ScanModeShifts) {
  Bilbo b(4);
  b.set_mode(BilboMode::kScan);
  BitVec dummy(4);
  b.step(dummy, true);
  b.step(dummy, false);
  b.step(dummy, true);
  b.step(dummy, true);
  // Shifted in: 1,0,1,1 -> stage1 = last shifted (1), stage4 = first (1).
  EXPECT_EQ(b.state().to_string(), "1101");
}

TEST(Bilbo, TpgModeMatchesType1Lfsr) {
  Bilbo b(8);
  BitVec seed(8);
  seed.set(7, true);
  b.set_state(seed);
  b.set_mode(BilboMode::kTpg);
  Type1Lfsr ref(primitive_polynomial(8));
  BitVec dummy(8);
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(b.state(), ref.state()) << t;
    b.step(dummy);
    ref.step();
  }
}

TEST(Bilbo, SaModeMatchesMisr) {
  Bilbo b(8);
  b.set_mode(BilboMode::kSa);
  Misr ref(primitive_polynomial(8));
  bibs::Xoshiro256 rng(9);
  for (int t = 0; t < 50; ++t) {
    BitVec w(8);
    w.deposit(0, 8, rng.next() & 0xFF);
    b.step(w);
    ref.step(w);
  }
  EXPECT_EQ(b.state(), ref.state());
}

TEST(Bilbo, ScanChainRoundTrip) {
  // Load a value, then shift it out through scan and verify the bitstream.
  Bilbo b(6);
  b.set_mode(BilboMode::kNormal);
  BitVec in(6);
  in.deposit(0, 6, 0b110100);
  b.step(in);
  b.set_mode(BilboMode::kScan);
  BitVec dummy(6);
  std::uint64_t shifted = 0;
  for (int i = 0; i < 6; ++i) {
    const bool out = b.step(dummy, false);
    shifted |= static_cast<std::uint64_t>(out) << i;
  }
  // The last stage (MSB) leaves first, so the collected LSB-first stream is
  // the bit-reversal of the loaded value.
  EXPECT_EQ(shifted, 0b001011u);
}

TEST(Cbilbo, GeneratesAndCompactsConcurrently) {
  Cbilbo c(8);
  Type1Lfsr ref_tpg(primitive_polynomial(8));
  Misr ref_sa(primitive_polynomial(8));
  bibs::Xoshiro256 rng(15);
  for (int t = 0; t < 60; ++t) {
    BitVec resp(8);
    resp.deposit(0, 8, rng.next() & 0xFF);
    c.step(resp);
    ref_tpg.step();
    ref_sa.step(resp);
    EXPECT_EQ(c.tpg_state(), ref_tpg.state());
    EXPECT_EQ(c.sa_state(), ref_sa.state());
  }
}

TEST(AreaModel, CbilboCostsMoreThanBilbo) {
  for (int w : {4, 8, 16})
    EXPECT_GT(Cbilbo::area_overhead_gate_equivalents(w),
              Bilbo::area_overhead_gate_equivalents(w));
}

}  // namespace
}  // namespace bibs::lfsr
