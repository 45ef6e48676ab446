#include "lfsr/misr.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bibs::lfsr {

Misr::Misr(Gf2Poly poly) : poly_(poly), n_(poly.degree()) {
  BIBS_ASSERT(n_ >= 1);
  state_.resize(static_cast<std::size_t>(n_));
}

void Misr::set_state(const BitVec& s) {
  BIBS_ASSERT(s.size() == static_cast<std::size_t>(n_));
  state_ = s;
}

void Misr::step(const BitVec& inputs) {
  BIBS_ASSERT(inputs.size() == static_cast<std::size_t>(n_));
  bool fb = false;
  for (int k = 1; k <= n_; ++k)
    if (poly_.coeff(n_ - k) && state_.get(static_cast<std::size_t>(k - 1)))
      fb = !fb;
  BitVec next(static_cast<std::size_t>(n_));
  next.set(0, fb ^ inputs.get(0));
  for (int i = 2; i <= n_; ++i)
    next.set(static_cast<std::size_t>(i - 1),
             state_.get(static_cast<std::size_t>(i - 2)) ^
                 inputs.get(static_cast<std::size_t>(i - 1)));
  state_ = next;
}

std::uint64_t Misr::signature() const {
  BIBS_ASSERT(n_ <= 64);
  return state_.extract(0, static_cast<std::size_t>(n_));
}

LaneMisr::LaneMisr(Gf2Poly poly, std::size_t words)
    : n_(poly.degree()), w_(words) {
  BIBS_ASSERT(n_ >= 1 && w_ >= 1);
  // Same feedback as Misr::step: stage k taps when coeff(n - k) is set.
  for (int k = 1; k <= n_; ++k)
    if (poly.coeff(n_ - k)) taps_.push_back(k - 1);
  state_.assign(static_cast<std::size_t>(n_) * w_, 0);
  fb_.assign(w_, 0);
}

void LaneMisr::step(std::span<const std::uint64_t* const> in) {
  BIBS_ASSERT(in.size() == static_cast<std::size_t>(n_));
  std::fill(fb_.begin(), fb_.end(), 0);
  for (int t : taps_) {
    const std::uint64_t* s = state_.data() + static_cast<std::size_t>(t) * w_;
    for (std::size_t w = 0; w < w_; ++w) fb_[w] ^= s[w];
  }
  // Top-down so each stage reads its predecessor's pre-step value.
  for (std::size_t i = static_cast<std::size_t>(n_) - 1; i >= 1; --i) {
    std::uint64_t* s = state_.data() + i * w_;
    const std::uint64_t* prev = s - w_;
    const std::uint64_t* x = in[i];
    for (std::size_t w = 0; w < w_; ++w) s[w] = prev[w] ^ x[w];
  }
  for (std::size_t w = 0; w < w_; ++w) state_[w] = fb_[w] ^ in[0][w];
}

std::uint64_t LaneMisr::signature(std::size_t lane) const {
  BIBS_ASSERT(n_ <= 64 && lane < w_ * 64);
  std::uint64_t sig = 0;
  for (std::size_t k = 0; k < static_cast<std::size_t>(n_); ++k)
    sig |= ((state_[k * w_ + (lane >> 6)] >> (lane & 63)) & 1u) << k;
  return sig;
}

std::vector<std::uint64_t> LaneMisr::lanes_differing_from_lane0() const {
  std::vector<std::uint64_t> diff(w_, 0);
  for (std::size_t k = 0; k < static_cast<std::size_t>(n_); ++k) {
    const std::uint64_t* s = state_.data() + k * w_;
    const std::uint64_t gold = (s[0] & 1u) ? ~0ull : 0ull;
    for (std::size_t w = 0; w < w_; ++w) diff[w] |= s[w] ^ gold;
  }
  return diff;
}

}  // namespace bibs::lfsr
