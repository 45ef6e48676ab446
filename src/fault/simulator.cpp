#include "fault/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "gate/sim.hpp"
#include "obs/obs.hpp"
#include "par/pool.hpp"

namespace bibs::fault {

using gate::Gate;
using gate::GateType;
using gate::NetId;

std::size_t CoverageCurve::detected_count() const {
  std::size_t n = 0;
  for (auto d : detected_at)
    if (d != kUndetected) ++n;
  return n;
}

double CoverageCurve::coverage() const {
  if (detected_at.empty()) return 1.0;
  return static_cast<double>(detected_count()) /
         static_cast<double>(detected_at.size());
}

std::int64_t CoverageCurve::patterns_for_fraction(double fraction) const {
  BIBS_ASSERT(fraction > 0.0 && fraction <= 1.0);
  std::vector<std::int64_t> hits;
  hits.reserve(detected_at.size());
  for (auto d : detected_at)
    if (d != kUndetected) hits.push_back(d);
  if (hits.empty()) return 0;  // nothing was ever detected
  // Clamp against float round-off so fraction == 1.0 always selects the
  // last detection and tiny fractions always select at least one fault.
  const auto need = std::min<std::size_t>(
      hits.size(),
      std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(fraction * static_cast<double>(hits.size())))));
  // Only the (need-1)-th order statistic matters; a full sort of every
  // detection time is O(n log n) per fraction per experiment row.
  std::nth_element(hits.begin(),
                   hits.begin() + static_cast<std::ptrdiff_t>(need - 1),
                   hits.end());
  return hits[need - 1] + 1;  // pattern indices are 0-based
}

std::ptrdiff_t CoverageCurve::first_difference(
    const CoverageCurve& other) const {
  const std::size_t n = std::min(detected_at.size(), other.detected_at.size());
  for (std::size_t i = 0; i < n; ++i)
    if (detected_at[i] != other.detected_at[i])
      return static_cast<std::ptrdiff_t>(i);
  if (detected_at.size() != other.detected_at.size())
    return static_cast<std::ptrdiff_t>(n);
  return -1;
}

double CoverageCurve::coverage_after(std::int64_t patterns) const {
  if (detected_at.empty()) return 1.0;
  std::size_t n = 0;
  for (auto d : detected_at)
    if (d != kUndetected && d < patterns) ++n;
  return static_cast<double>(n) / static_cast<double>(detected_at.size());
}

FaultSimulator::FaultSimulator(const gate::Netlist& nl, FaultList faults,
                               EvalBackend /*backend*/, FaultModel model)
    : nl_(&nl),
      faults_(std::move(faults)),
      model_(model),
      prog_(nl) {
  BIBS_ASSERT(nl.dffs().empty());  // combinational netlists only
  if (model_ == FaultModel::kTransition) {
    for (const Fault& f : faults_.faults())
      if (f.pin >= 0)
        throw DesignError(
            "transition faults are stem-only; fault list contains a pin "
            "fault on net " + std::to_string(f.net));
    site_prev_.assign(faults_.size(), 0);
  }
  topo_ = nl.comb_topo_order();
  const std::size_t n = nl.net_count();
  observed_.assign(n, 0);
  for (NetId o : nl.outputs()) observed_[static_cast<std::size_t>(o)] = 1;
  good_.assign(n, 0);
  // Constant nets never change: set them once here instead of rescanning
  // the whole netlist per block.
  for (NetId c : prog_.const1_nets())
    good_[static_cast<std::size_t>(c)] = ~0ull;
}

void FaultSimulator::set_lane_backend(const gate::LaneBackend* backend) {
  BIBS_ASSERT(backend != nullptr);
  if (backend->words != 1)
    throw DesignError("fault simulation runs 64-lane scalar blocks only; "
                      "lane backend " + std::string(backend->name) +
                      " is not accepted");
}

void FaultSimulator::good_eval(const std::uint64_t* in_words) {
  const auto& ins = nl_->inputs();
  for (std::size_t i = 0; i < ins.size(); ++i)
    good_[static_cast<std::size_t>(ins[i])] = in_words[i];
  prog_.run(good_.data());
}

void FaultSimulator::set_progress(obs::ProgressFn fn,
                                  std::int64_t every_patterns) {
  BIBS_ASSERT(every_patterns > 0);
  progress_ = std::move(fn);
  progress_every_ = every_patterns;
}

void FaultSimulator::set_threads(int threads) {
  BIBS_ASSERT(threads >= 0);
  threads_ = threads;
}

CoverageCurve FaultSimulator::run(const PatternBlockFn& gen,
                                  std::int64_t max_patterns,
                                  std::int64_t stall_limit,
                                  const rt::RunControl& ctl,
                                  const rt::SimCheckpoint* resume) {
  BIBS_SPAN("fault_sim.run");
  BIBS_COUNTER(c_patterns, "fault_sim.patterns");
  BIBS_COUNTER(c_blocks, "fault_sim.blocks");
  BIBS_COUNTER(c_dropped, "fault_sim.faults_dropped");
  BIBS_GAUGE(g_coverage, "fault_sim.coverage");
  BIBS_GAUGE(g_threads, "par.threads");
  BIBS_HISTOGRAM(h_block_det, "fault_sim.block_detections",
                 (std::vector<double>{0, 1, 2, 4, 8, 16, 32, 64}));

  BIBS_GAUGE(g_faults_sim, "fault_sim.faults_simulated");
  BIBS_GAUGE(g_faults_full, "fault_sim.faults_full");
  BIBS_GAUGE_SET(g_faults_sim, faults_.size());
  BIBS_GAUGE_SET(g_faults_full, faults_.full_size() > 0 ? faults_.full_size()
                                                        : faults_.size());

  par::ThreadPool pool(threads_);
  BIBS_GAUGE_SET(g_threads, pool.threads());
  std::vector<Scratch> scratch(static_cast<std::size_t>(pool.threads()));
  for (Scratch& s : scratch) {
    s.cur.assign(nl_->net_count(), 0);
    // The compiled sweep writes changed nets through a raw cursor (each net
    // changes at most once per fault, so net_count bounds the count).
    s.changed.assign(nl_->net_count(), 0);
    s.dirty.assign((prog_.size() + 63) / 64, 0);
  }

  CoverageCurve curve;
  if (resume) {
    if (resume->detected_at.size() != faults_.size())
      throw DesignError("sim checkpoint fault count (" +
                        std::to_string(resume->detected_at.size()) +
                        ") does not match the fault list (" +
                        std::to_string(faults_.size()) + ")");
    if (resume->patterns_run < 0)
      throw DesignError("sim checkpoint has negative patterns_run");
    if (resume->fault_model != to_string(model_))
      throw DesignError("sim checkpoint fault model '" + resume->fault_model +
                        "' does not match this simulator's model '" +
                        to_string(model_) + "'");
    curve.detected_at = resume->detected_at;
    if (model_ == FaultModel::kTransition) {
      if (resume->patterns_run > 0 &&
          resume->site_prev.size() != faults_.size())
        throw DesignError(
            "sim checkpoint carries no usable site_prev launch state");
      site_prev_ = resume->site_prev;
      site_prev_.resize(faults_.size(), 0);
      have_prev_ = resume->patterns_run > 0;
    }
  } else {
    curve.detected_at.assign(faults_.size(), CoverageCurve::kUndetected);
    if (model_ == FaultModel::kTransition) {
      site_prev_.assign(faults_.size(), 0);
      have_prev_ = false;
    }
  }

  std::vector<std::size_t> live;
  live.reserve(faults_.size());
  for (std::size_t i = 0; i < faults_.size(); ++i)
    if (curve.detected_at[i] == CoverageCurve::kUndetected) live.push_back(i);

  std::vector<std::uint64_t> in_words(
      std::max<std::size_t>(nl_->inputs().size(), 1));
  std::vector<std::uint64_t> block_det;  // one word per live fault
  block_det.reserve(live.size());
  std::int64_t base = resume ? resume->patterns_run : 0;
  std::int64_t last_new_detection = 0;
  for (std::int64_t d : curve.detected_at)
    if (d != CoverageCurve::kUndetected)
      last_new_detection = std::max(last_new_detection, d);
  std::int64_t next_progress = base + progress_every_;

  const auto emit_progress = [&] {
    obs::Progress p;
    p.phase = "fault_sim";
    p.done = base;
    p.total = max_patterns == std::numeric_limits<std::int64_t>::max()
                  ? -1
                  : max_patterns;
    p.faults_live = static_cast<std::int64_t>(live.size());
    p.faults_detected =
        static_cast<std::int64_t>(faults_.size() - live.size());
    p.coverage = faults_.size() == 0
                     ? 1.0
                     : static_cast<double>(p.faults_detected) /
                           static_cast<double>(faults_.size());
    progress_(p);
  };

  while (base < max_patterns && !live.empty()) {
    if (const rt::RunStatus st = ctl.interruption(base);
        st != rt::RunStatus::kFinished) {
      curve.status = st;
      break;
    }
    // One generator call per block: lane l is pattern base + l.
    const int lanes = static_cast<int>(std::min<std::int64_t>(
        {gen(in_words.data()), gate::kLanesPerWord, max_patterns - base}));
    if (lanes <= 0) break;
    const std::uint64_t lane_mask =
        lanes >= gate::kLanesPerWord ? ~0ull : (1ull << lanes) - 1;

    good_eval(in_words.data());

    // Fan the still-undetected faults out across the pool: chunk boundaries
    // depend only on live.size() and the thread count, each chunk writes its
    // per-fault detection words into disjoint block_det slots, and the merge
    // below walks them in fault-list order — so curve/stall state evolves
    // exactly as in a serial run whatever the thread count.
    block_det.resize(live.size());
    pool.parallel_for_chunks(
        live.size(), [&](int chunk, std::size_t b, std::size_t e) {
          if (b == e) return;
          Scratch& s = scratch[static_cast<std::size_t>(chunk)];
          s.cur = good_;
          const gate::LanePropagateCtx ctx{
              prog_.view(),     prog_.size(),     good_.data(),
              s.cur.data(),     observed_.data(), s.dirty.data(),
              lane_mask};
          for (std::size_t li = b; li < e; ++li) {
            const Fault& f = faults_[live[li]];
            const gate::LaneFaultSite site{
                f.net, f.pin,
                f.pin >= 0 ? prog_.instr_of(f.net)
                           : gate::EvalProgram::kNoInstr,
                f.stuck};
            block_det[li] = gate::propagate_fault(ctx, site, s.changed.data());
          }
        });

    if (model_ == FaultModel::kTransition) {
      // Two-pattern gating: a transition fires on pattern p only if the
      // site's fault-free value on p-1 (the launch word: this block's good
      // word shifted up one bit, carrying the previous block's last value
      // in) equals the initialization value — 0 for slow-to-rise, 1 for
      // slow-to-fall. The very first pattern of a run has no launch side
      // and is masked off entirely.
      for (std::size_t li = 0; li < live.size(); ++li) {
        const std::size_t fi = live[li];
        const Fault& f = faults_[fi];
        const std::uint64_t g = good_[static_cast<std::size_t>(f.net)];
        const std::uint64_t launch = (g << 1) | (site_prev_[fi] ? 1ull : 0ull);
        block_det[li] &= f.stuck ? launch : ~launch;
        if (!have_prev_) block_det[li] &= ~1ull;
        site_prev_[fi] = static_cast<std::uint8_t>((g >> (lanes - 1)) & 1);
      }
      have_prev_ = true;
    }

    std::size_t keep = 0;
    const std::size_t live_before = live.size();
    for (std::size_t li = 0; li < live.size(); ++li) {
      const std::size_t fi = live[li];
      if (block_det[li] != 0) {
        curve.detected_at[fi] = base + std::countr_zero(block_det[li]);
        last_new_detection = curve.detected_at[fi];
      } else {
        live[keep++] = fi;
      }
    }
    live.resize(keep);
    base += lanes;

    BIBS_COUNTER_ADD(c_patterns, lanes);
    BIBS_COUNTER_ADD(c_blocks, 1);
    BIBS_COUNTER_ADD(c_dropped, live_before - keep);
    BIBS_HISTOGRAM_OBSERVE(h_block_det, live_before - keep);
    if (progress_ && base >= next_progress) {
      emit_progress();
      next_progress = base + progress_every_;
    }

    if (base - last_new_detection > stall_limit) break;
  }
  curve.patterns_run = base;
  BIBS_GAUGE_SET(g_coverage, curve.coverage());
  if (progress_) emit_progress();
  return curve;
}

CoverageCurve FaultSimulator::run_random(Xoshiro256& rng,
                                         std::int64_t max_patterns,
                                         std::int64_t stall_limit,
                                         const rt::RunControl& ctl,
                                         const rt::SimCheckpoint* resume) {
  if (resume && resume->has_rng) resume->restore_rng(rng);
  const std::size_t nin = nl_->inputs().size();
  return run(
      [&](std::uint64_t* words) {
        for (std::size_t i = 0; i < nin; ++i) words[i] = rng.next();
        return gate::kLanesPerWord;
      },
      max_patterns, stall_limit, ctl, resume);
}

CoverageCurve FaultSimulator::run_weighted(Xoshiro256& rng,
                                           double one_probability,
                                           std::int64_t max_patterns,
                                           std::int64_t stall_limit,
                                           const rt::RunControl& ctl,
                                           const rt::SimCheckpoint* resume) {
  BIBS_ASSERT(one_probability > 0.0 && one_probability < 1.0);
  if (resume && resume->has_rng) resume->restore_rng(rng);
  const std::size_t nin = nl_->inputs().size();
  return run(
      [&, one_probability](std::uint64_t* words) {
        for (std::size_t i = 0; i < nin; ++i) {
          std::uint64_t w = 0;
          for (int b = 0; b < gate::kLanesPerWord; ++b)
            if (rng.next_double() < one_probability) w |= 1ull << b;
          words[i] = w;
        }
        return gate::kLanesPerWord;
      },
      max_patterns, stall_limit, ctl, resume);
}

CoverageCurve FaultSimulator::run_exhaustive(const rt::RunControl& ctl,
                                             const rt::SimCheckpoint* resume) {
  const std::size_t nin = nl_->inputs().size();
  BIBS_ASSERT(nin <= 30);
  const std::int64_t total = 1ll << nin;
  std::int64_t next = resume ? resume->patterns_run : 0;
  return run(
      [&](std::uint64_t* words) {
        const int lanes = static_cast<int>(
            std::min<std::int64_t>(gate::kLanesPerWord, total - next));
        if (lanes <= 0) return 0;
        for (std::size_t i = 0; i < nin; ++i) {
          std::uint64_t w = 0;
          for (int b = 0; b < lanes; ++b)
            if (((next + b) >> i) & 1) w |= 1ull << b;
          words[i] = w;
        }
        next += lanes;
        return lanes;
      },
      total, std::numeric_limits<std::int64_t>::max(), ctl, resume);
}

rt::SimCheckpoint FaultSimulator::make_checkpoint(const CoverageCurve& curve,
                                                  const Xoshiro256* rng) const {
  BIBS_ASSERT(curve.detected_at.size() == faults_.size());
  rt::SimCheckpoint ck;
  ck.patterns_run = curve.patterns_run;
  ck.detected_at = curve.detected_at;
  if (rng) ck.capture_rng(*rng);
  ck.fault_model = to_string(model_);
  if (model_ == FaultModel::kTransition)
    ck.site_prev.assign(site_prev_.begin(), site_prev_.end());
  return ck;
}

bool FaultSimulator::detects_naive(const Fault& f,
                                   const std::vector<bool>& pattern) const {
  BIBS_ASSERT(pattern.size() == nl_->inputs().size());
  // Full serial resimulation of good and faulty circuits.
  auto simulate = [&](bool faulty) {
    std::vector<std::uint64_t> val(nl_->net_count(), 0);
    const auto& ins = nl_->inputs();
    for (std::size_t i = 0; i < ins.size(); ++i)
      val[static_cast<std::size_t>(ins[i])] = pattern[i] ? 1 : 0;
    for (NetId id = 0; static_cast<std::size_t>(id) < nl_->net_count(); ++id)
      if (nl_->gate(id).type == GateType::kConst1)
        val[static_cast<std::size_t>(id)] = 1;
    for (NetId id : topo_) {
      const Gate& g = nl_->gate(id);
      std::uint64_t in[64];
      for (std::size_t i = 0; i < g.fanin.size(); ++i)
        in[i] = val[static_cast<std::size_t>(g.fanin[i])];
      if (faulty && f.pin >= 0 && id == f.net)
        in[static_cast<std::size_t>(f.pin)] = f.stuck ? 1 : 0;
      val[static_cast<std::size_t>(id)] =
          gate::Simulator::eval_gate(g.type, in, g.fanin.size()) & 1;
    }
    if (faulty && f.pin < 0) {
      // Output stem fault: force and repropagate downstream levels.
      val[static_cast<std::size_t>(f.net)] = f.stuck ? 1 : 0;
      for (NetId id : topo_) {
        if (prog_.level(id) <= prog_.level(f.net)) continue;
        const Gate& g = nl_->gate(id);
        std::uint64_t in[64];
        for (std::size_t i = 0; i < g.fanin.size(); ++i)
          in[i] = val[static_cast<std::size_t>(g.fanin[i])];
        val[static_cast<std::size_t>(id)] =
            gate::Simulator::eval_gate(g.type, in, g.fanin.size()) & 1;
      }
    }
    return val;
  };
  const auto good = simulate(false);
  const auto bad = simulate(true);
  for (NetId o : nl_->outputs())
    if ((good[static_cast<std::size_t>(o)] ^
         bad[static_cast<std::size_t>(o)]) &
        1)
      return true;
  return false;
}

bool FaultSimulator::good_value_naive(NetId net,
                                      const std::vector<bool>& pattern) const {
  BIBS_ASSERT(pattern.size() == nl_->inputs().size());
  std::vector<std::uint64_t> val(nl_->net_count(), 0);
  const auto& ins = nl_->inputs();
  for (std::size_t i = 0; i < ins.size(); ++i)
    val[static_cast<std::size_t>(ins[i])] = pattern[i] ? 1 : 0;
  for (NetId id = 0; static_cast<std::size_t>(id) < nl_->net_count(); ++id)
    if (nl_->gate(id).type == GateType::kConst1)
      val[static_cast<std::size_t>(id)] = 1;
  for (NetId id : topo_) {
    const Gate& g = nl_->gate(id);
    std::uint64_t in[64];
    for (std::size_t i = 0; i < g.fanin.size(); ++i)
      in[i] = val[static_cast<std::size_t>(g.fanin[i])];
    val[static_cast<std::size_t>(id)] =
        gate::Simulator::eval_gate(g.type, in, g.fanin.size()) & 1;
  }
  return (val[static_cast<std::size_t>(net)] & 1) != 0;
}

bool FaultSimulator::detects_naive_transition(
    const Fault& f, const std::vector<bool>& launch,
    const std::vector<bool>& capture) const {
  BIBS_ASSERT(f.pin < 0);  // transition faults are stem-only
  // Initialization: the launch pattern must set the site to the value the
  // slow edge departs from (0 for slow-to-rise, 1 for slow-to-fall)...
  if (good_value_naive(f.net, launch) != f.stuck) return false;
  // ...and the capture pattern must then detect the frozen value, which is
  // exactly the corresponding stuck-at detection condition.
  return detects_naive(f, capture);
}

}  // namespace bibs::fault
