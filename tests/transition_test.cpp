// Tests for the transition (gross gate-delay) fault model: the stem-only
// fault universe, two-pattern launch/capture detection in the PPSFP
// simulator (cross-checked against naive resimulation), undetectable edge
// cases (constant nodes, single-pattern runs), width/thread invariance
// mirroring tests/lanes_test.cpp, checkpoint/resume bit-exactness, and the
// at-speed BIST session / CSTP paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "circuits/datapaths.hpp"
#include "circuits/random.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/designer.hpp"
#include "fault/fault.hpp"
#include "fault/simulator.hpp"
#include "gate/lanes.hpp"
#include "gate/synth.hpp"
#include "rt/checkpoint.hpp"
#include "sim/cstp.hpp"
#include "sim/session.hpp"

namespace bibs {
namespace {

constexpr std::int64_t kNoStall = std::numeric_limits<std::int64_t>::max();

using fault::CoverageCurve;
using fault::Fault;
using fault::FaultList;
using fault::FaultModel;
using fault::FaultSimulator;
using gate::Bus;
using gate::GateType;
using gate::NetId;
using gate::Netlist;

Netlist adder(int width) {
  Netlist nl;
  Bus a, b;
  for (int i = 0; i < width; ++i)
    a.push_back(nl.add_input("a" + std::to_string(i)));
  for (int i = 0; i < width; ++i)
    b.push_back(nl.add_input("b" + std::to_string(i)));
  for (NetId o : gate::ripple_adder(nl, a, b, true)) nl.mark_output(o);
  return nl;
}

/// adder(width) plus an AND chain over all inputs: the chain head's
/// slow-to-fall fault needs an all-ones launch pattern (probability
/// 2^-2*width), so random runs keep at least one live fault and budget /
/// deadline stops fire instead of natural completion.
Netlist adder_with_resistant_and(int width) {
  Netlist nl;
  Bus a, b;
  for (int i = 0; i < width; ++i)
    a.push_back(nl.add_input("a" + std::to_string(i)));
  for (int i = 0; i < width; ++i)
    b.push_back(nl.add_input("b" + std::to_string(i)));
  for (NetId o : gate::ripple_adder(nl, a, b, true)) nl.mark_output(o);
  NetId all = a[0];
  for (int i = 1; i < width; ++i)
    all = nl.add_gate(GateType::kAnd, {all, a[static_cast<std::size_t>(i)]},
                      "alla" + std::to_string(i));
  for (int i = 0; i < width; ++i)
    all = nl.add_gate(GateType::kAnd, {all, b[static_cast<std::size_t>(i)]},
                      "allb" + std::to_string(i));
  nl.mark_output(all, "all_ones");
  return nl;
}

/// A generator replaying an explicit pattern list, one bit per input, in
/// 64-lane blocks — the stimulus side of the naive cross-checks.
FaultSimulator::PatternBlockFn replay(
    const Netlist& nl, const std::vector<std::vector<bool>>& patterns) {
  auto next = std::make_shared<std::size_t>(0);
  const std::size_t n_inputs = nl.inputs().size();
  return [&patterns, next, n_inputs](std::uint64_t* words) {
    const std::size_t base = *next;
    if (base >= patterns.size()) return 0;
    const int lanes =
        static_cast<int>(std::min<std::size_t>(64, patterns.size() - base));
    for (std::size_t i = 0; i < n_inputs; ++i) {
      std::uint64_t w = 0;
      for (int l = 0; l < lanes; ++l)
        if (patterns[base + l][i]) w |= 1ull << l;
      words[i] = w;
    }
    *next += static_cast<std::size_t>(lanes);
    return lanes;
  };
}

std::vector<std::vector<bool>> seeded_patterns(const Netlist& nl,
                                               std::size_t count,
                                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<bool>> out(count);
  for (auto& p : out) {
    p.resize(nl.inputs().size());
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = rng.next() & 1u;
  }
  return out;
}

// ------------------------------------------------------- fault universe --

TEST(TransitionList, StemOnlyBothPolaritiesConstantsExcluded) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId one = nl.add_const(true);
  const NetId y = nl.add_gate(GateType::kAnd, {a, one}, "y");
  nl.mark_output(y, "y");
  const FaultList fl = FaultList::transition(nl);
  // Sites: a and y; the constant is excluded. Two polarities each.
  EXPECT_EQ(fl.size(), 4u);
  EXPECT_EQ(fl.full_size(), fl.size());
  for (const Fault& f : fl.faults()) {
    EXPECT_EQ(f.pin, -1);
    EXPECT_NE(f.net, one);
  }
  EXPECT_EQ(fault::to_string(nl, fl[0], FaultModel::kTransition),
            "a slow-to-rise");
  EXPECT_EQ(fault::to_string(nl, fl[1], FaultModel::kTransition),
            "a slow-to-fall");
}

TEST(TransitionList, ModelNamesRoundTrip) {
  EXPECT_EQ(fault::to_string(FaultModel::kStuckAt), "stuck_at");
  EXPECT_EQ(fault::to_string(FaultModel::kTransition), "transition");
  EXPECT_EQ(fault::fault_model_from_string("transition"),
            FaultModel::kTransition);
  EXPECT_EQ(fault::fault_model_from_string("stuck_at"), FaultModel::kStuckAt);
  EXPECT_THROW(fault::fault_model_from_string("delay"), DesignError);
}

TEST(TransitionSim, RejectsPinFaults) {
  const Netlist nl = adder(4);
  // The collapsed stuck-at list carries branch (pin) faults.
  const FaultList stuck = FaultList::full(nl);
  ASSERT_TRUE(std::any_of(stuck.faults().begin(), stuck.faults().end(),
                          [](const Fault& f) { return f.pin >= 0; }));
  EXPECT_THROW(FaultSimulator(nl, stuck, fault::EvalBackend::kCompiled,
                              FaultModel::kTransition),
               DesignError);
}

// ------------------------------------------------- launch/capture pairing --

TEST(TransitionSim, BufferLaunchCapturePairing) {
  // y = BUF(a): a slow-to-rise fault is detected exactly on the first 0->1
  // step of the input stream, slow-to-fall on the first 1->0 step.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId y = nl.add_gate(GateType::kBuf, {a}, "y");
  nl.mark_output(y, "y");

  std::vector<std::vector<bool>> patterns;
  for (const bool bit : {false, true, true, false, true})
    patterns.push_back({bit});

  FaultSimulator sim(nl, FaultList::transition(nl),
                     fault::EvalBackend::kCompiled, FaultModel::kTransition);
  const CoverageCurve curve =
      sim.run(replay(nl, patterns), static_cast<std::int64_t>(patterns.size()));
  ASSERT_EQ(curve.detected_at.size(), 4u);  // {a, y} x {STR, STF}
  for (std::size_t fi = 0; fi < 4; ++fi) {
    const bool stf = sim.faults()[fi].stuck;
    EXPECT_EQ(curve.detected_at[fi], stf ? 3 : 1)
        << fault::to_string(nl, sim.faults()[fi], FaultModel::kTransition);
  }
}

TEST(TransitionSim, Pattern0NeverDetects) {
  const Netlist nl = adder(4);
  FaultSimulator sim(nl, FaultList::transition(nl),
                     fault::EvalBackend::kCompiled, FaultModel::kTransition);
  // A single pattern has no launch side: nothing can be detected.
  const auto patterns = seeded_patterns(nl, 1, 3);
  const CoverageCurve curve = sim.run(replay(nl, patterns), 1);
  EXPECT_EQ(curve.patterns_run, 1);
  EXPECT_EQ(curve.detected_count(), 0u);
}

TEST(TransitionSim, ConstantNodeIsUndetectable) {
  // z = AND(a, NOT a) is structurally constant 0: its slow-to-rise fault
  // has no stuck-at-0 difference to propagate and its slow-to-fall fault
  // never sees a launch value of 1.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId na = nl.add_gate(GateType::kNot, {a}, "na");
  const NetId z = nl.add_gate(GateType::kAnd, {a, na}, "z");
  const NetId y = nl.add_gate(GateType::kOr, {z, b}, "y");
  nl.mark_output(y, "y");

  FaultSimulator sim(nl, FaultList::transition(nl),
                     fault::EvalBackend::kCompiled, FaultModel::kTransition);
  Xoshiro256 rng(11);
  const CoverageCurve curve = sim.run_random(rng, 512);
  for (std::size_t fi = 0; fi < sim.faults().size(); ++fi)
    if (sim.faults()[fi].net == z)
      EXPECT_EQ(curve.detected_at[fi], CoverageCurve::kUndetected);
  // The circuit is otherwise alive: something else is detected.
  EXPECT_GT(curve.detected_count(), 0u);
}

// ---------------------------------------------------- naive cross-check --

TEST(TransitionSim, MatchesNaiveTwoPatternResimulation) {
  std::vector<Netlist> zoo;
  zoo.push_back(adder(4));
  for (int i = 0; i < 3; ++i) {
    circuits::RandomGateNetlistOptions ro;
    ro.inputs = 5 + i;
    ro.gates = 18 + 9 * i;
    ro.outputs = 2 + i;
    ro.seed = 900 + static_cast<std::uint64_t>(i);
    zoo.push_back(circuits::make_random_gate_netlist(ro));
  }
  for (const Netlist& nl : zoo) {
    const auto patterns = seeded_patterns(nl, 160, 77);
    FaultSimulator sim(nl, FaultList::transition(nl),
                       fault::EvalBackend::kCompiled, FaultModel::kTransition);
    const CoverageCurve curve =
        sim.run(replay(nl, patterns),
                static_cast<std::int64_t>(patterns.size()));
    // The run stops at the end of the 64-pattern block in which the last
    // fault falls, or after every pattern when some fault stays undetected.
    const auto n_patterns = static_cast<std::int64_t>(patterns.size());
    std::int64_t expect_run = 0;
    for (std::size_t fi = 0; fi < sim.faults().size(); ++fi) {
      const Fault& f = sim.faults()[fi];
      std::int64_t expect = CoverageCurve::kUndetected;
      for (std::size_t p = 1; p < patterns.size(); ++p) {
        if (sim.detects_naive_transition(f, patterns[p - 1], patterns[p])) {
          expect = static_cast<std::int64_t>(p);
          break;
        }
      }
      EXPECT_EQ(curve.detected_at[fi], expect)
          << fault::to_string(nl, f, FaultModel::kTransition);
      expect_run = expect == CoverageCurve::kUndetected
                       ? n_patterns
                       : std::max(expect_run, (expect / 64 + 1) * 64);
    }
    EXPECT_EQ(curve.patterns_run, std::min(expect_run, n_patterns));
  }
}

// --------------------------------------------- width / thread invariance --

/// The process-wide lane backend (BIBS_LANES / --lanes) never reaches the
/// fault simulator: curves and patterns_run are the same under every one.
TEST(TransitionSim, CurvesAreWidthInvariant) {
  for (int width : {4, 8}) {
    const Netlist nl = adder(width);
    const FaultList faults = FaultList::transition(nl);
    std::vector<CoverageCurve> curves;
    for (const gate::LaneBackend* lb : gate::all_lane_backends()) {
      if (!lb->supported()) continue;
      gate::set_lane_backend(lb);
      FaultSimulator sim(nl, faults, fault::EvalBackend::kCompiled,
                         FaultModel::kTransition);
      Xoshiro256 rng(42);
      curves.push_back(sim.run_random(rng, 2048));
      EXPECT_EQ(curves.back().detected_at, curves.front().detected_at)
          << lb->name;
      EXPECT_EQ(curves.back().patterns_run, curves.front().patterns_run)
          << lb->name;
    }
    gate::set_lane_backend(nullptr);
  }
}

TEST(TransitionSim, CurvesAreThreadInvariant) {
  const Netlist nl = adder(8);
  const FaultList faults = FaultList::transition(nl);
  FaultSimulator serial(nl, faults, fault::EvalBackend::kCompiled,
                        FaultModel::kTransition);
  serial.set_threads(1);
  Xoshiro256 rng_a(5);
  const CoverageCurve a = serial.run_random(rng_a, 1024);

  FaultSimulator threaded(nl, faults, fault::EvalBackend::kCompiled,
                          FaultModel::kTransition);
  threaded.set_threads(4);
  Xoshiro256 rng_b(5);
  const CoverageCurve b = threaded.run_random(rng_b, 1024);
  EXPECT_EQ(a.detected_at, b.detected_at);
  EXPECT_EQ(a.patterns_run, b.patterns_run);
}

// ------------------------------------------------------ checkpoint/resume --

TEST(TransitionSim, CheckpointResumeIsBitExact) {
  const Netlist nl = adder_with_resistant_and(8);
  const FaultList faults = FaultList::transition(nl);

  // The run is polled every 64 patterns, so the budget stop fires while
  // faults are still live.
  FaultSimulator straight(nl, faults, fault::EvalBackend::kCompiled,
                          FaultModel::kTransition);
  Xoshiro256 rng_a(21);
  const CoverageCurve whole = straight.run_random(rng_a, 1024);

  FaultSimulator first(nl, faults, fault::EvalBackend::kCompiled,
                       FaultModel::kTransition);
  Xoshiro256 rng_b(21);
  rt::RunControl ctl;
  ctl.budget = 64;
  const CoverageCurve part = first.run_random(rng_b, 1024, kNoStall, ctl);
  ASSERT_EQ(part.status, rt::RunStatus::kBudgetExhausted);
  ASSERT_LT(part.patterns_run, whole.patterns_run);
  rt::SimCheckpoint ck = first.make_checkpoint(part, &rng_b);
  EXPECT_EQ(ck.fault_model, "transition");
  EXPECT_EQ(ck.site_prev.size(), faults.size());

  // Round-trip through JSON, as a process restart would.
  const rt::SimCheckpoint thawed =
      rt::SimCheckpoint::from_json(ck.to_json());
  EXPECT_EQ(thawed.fault_model, "transition");
  ASSERT_EQ(thawed.site_prev, ck.site_prev);

  FaultSimulator second(nl, faults, fault::EvalBackend::kCompiled,
                        FaultModel::kTransition);
  Xoshiro256 rng_c(999);  // overwritten by the checkpointed PRNG state
  const CoverageCurve rest =
      second.run_random(rng_c, 1024, kNoStall, {}, &thawed);
  EXPECT_EQ(rest.detected_at, whole.detected_at);
  EXPECT_EQ(rest.patterns_run, whole.patterns_run);
}

TEST(TransitionSim, ResumeRejectsModelMismatchAndMissingLaunchState) {
  const Netlist nl = adder_with_resistant_and(8);

  // A stuck-at checkpoint cannot seed a transition run (and vice versa).
  FaultSimulator stuck(nl, FaultList::collapsed(nl));
  Xoshiro256 rng(3);
  rt::RunControl ctl;
  ctl.budget = 64;
  const CoverageCurve part = stuck.run_random(rng, 1024, kNoStall, ctl);
  ASSERT_NE(part.status, rt::RunStatus::kFinished);
  const rt::SimCheckpoint sa_ck = stuck.make_checkpoint(part, &rng);
  EXPECT_EQ(sa_ck.fault_model, "stuck_at");

  const FaultList tfaults = FaultList::transition(nl);
  FaultSimulator trans(nl, tfaults, fault::EvalBackend::kCompiled,
                       FaultModel::kTransition);
  Xoshiro256 rng2(3);
  EXPECT_THROW(trans.run_random(rng2, 1024, kNoStall, {}, &sa_ck),
               DesignError);

  // A transition checkpoint stripped of its site_prev launch state is
  // unusable once patterns were simulated.
  FaultSimulator trans2(nl, tfaults, fault::EvalBackend::kCompiled,
                        FaultModel::kTransition);
  Xoshiro256 rng3(3);
  const CoverageCurve tpart = trans2.run_random(rng3, 1024, kNoStall, ctl);
  ASSERT_NE(tpart.status, rt::RunStatus::kFinished);
  rt::SimCheckpoint t_ck = trans2.make_checkpoint(tpart, &rng3);
  t_ck.site_prev.clear();
  FaultSimulator trans3(nl, tfaults, fault::EvalBackend::kCompiled,
                        FaultModel::kTransition);
  Xoshiro256 rng4(3);
  EXPECT_THROW(trans3.run_random(rng4, 1024, kNoStall, {}, &t_ck),
               DesignError);
}

// ------------------------------------------------------- session / CSTP --

struct Rig {
  rtl::Netlist n;
  gate::Elaboration elab;
  core::DesignResult design;
  std::vector<core::Kernel> kernels;
};

Rig make_rig() {
  Rig s;
  s.n = circuits::make_c3a2m();
  s.elab = gate::elaborate(s.n);
  s.design = core::design_bibs(s.n);
  for (const core::Kernel& k : s.design.report.kernels)
    if (!k.trivial) s.kernels.push_back(k);
  return s;
}

TEST(TransitionSession, SerialThreadedAndWideReportsAgree) {
  const Rig s = make_rig();
  ASSERT_FALSE(s.kernels.empty());
  sim::BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  session.set_fault_model(FaultModel::kTransition);
  EXPECT_EQ(session.fault_model(), FaultModel::kTransition);
  const FaultList faults = session.kernel_transition_faults();
  ASSERT_GT(faults.size(), 63u);
  for (const Fault& f : faults.faults()) EXPECT_EQ(f.pin, -1);

  session.set_batch_lanes(64);
  const sim::SessionReport serial = session.run(faults, 256);
  EXPECT_GT(serial.detected_by_signature, 0u);
  EXPECT_LE(serial.detected_by_signature, serial.detected_at_outputs);

  session.set_threads(3);
  EXPECT_EQ(session.run(faults, 256), serial);
  session.set_threads(1);

  for (const gate::LaneBackend* lb : gate::all_lane_backends()) {
    if (!lb->supported() || lb->words == 1) continue;
    session.set_batch_lanes(lb->lanes);
    EXPECT_EQ(session.run(faults, 256), serial) << lb->name;
  }
}

TEST(TransitionSession, CheckpointRecordsModelAndRejectsMismatch) {
  const Rig s = make_rig();
  ASSERT_FALSE(s.kernels.empty());
  sim::BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  session.set_batch_lanes(64);
  session.set_fault_model(FaultModel::kTransition);
  const FaultList faults = session.kernel_transition_faults();

  rt::SessionCheckpoint ck;
  const sim::SessionReport rep = session.run(faults, 128, {}, nullptr, &ck);
  ASSERT_EQ(rep.status, rt::RunStatus::kFinished);
  EXPECT_EQ(ck.fault_model, "transition");
  const rt::SessionCheckpoint thawed =
      rt::SessionCheckpoint::from_json(ck.to_json());
  EXPECT_EQ(thawed.fault_model, "transition");

  session.set_fault_model(FaultModel::kStuckAt);
  EXPECT_THROW(session.run(faults, 128, {}, &thawed), DesignError);
  // Back under the right model the checkpoint replays bit-exactly.
  session.set_fault_model(FaultModel::kTransition);
  EXPECT_EQ(session.run(faults, 128, {}, &thawed), rep);
}

TEST(TransitionCstp, ReportIsDeterministicAcrossWidthsAndDetects) {
  const Rig s = make_rig();
  sim::CstpSession cstp(s.elab.netlist);
  cstp.set_fault_model(FaultModel::kTransition);
  EXPECT_EQ(cstp.fault_model(), FaultModel::kTransition);
  const FaultList faults = FaultList::transition(s.elab.netlist);
  ASSERT_GT(faults.size(), 63u);

  cstp.set_batch_lanes(64);
  const sim::CstpReport narrow = cstp.run(faults, 128);
  EXPECT_GT(narrow.detected_ideal, 0u);
  EXPECT_GE(narrow.detected_ideal, narrow.detected_by_signature);

  for (const gate::LaneBackend* lb : gate::all_lane_backends()) {
    if (!lb->supported() || lb->words == 1) continue;
    cstp.set_batch_lanes(lb->lanes);
    const sim::CstpReport wide = cstp.run(faults, 128);
    EXPECT_EQ(wide.detected_ideal, narrow.detected_ideal) << lb->name;
    EXPECT_EQ(wide.detected_by_signature, narrow.detected_by_signature)
        << lb->name;
  }
}

}  // namespace
}  // namespace bibs
