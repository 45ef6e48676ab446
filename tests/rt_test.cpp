// Tests for bibs::rt — cooperative cancellation, deadlines, work budgets,
// checkpoint/resume bit-exactness across the fault-sim / session stack —
// plus the hardened parser front-ends (positioned ParseErrors, nesting and
// resolve-depth limits, malformed-input corpus under tests/data/bad/).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <thread>

#include "circuits/datapaths.hpp"
#include "common/prng.hpp"
#include "core/designer.hpp"
#include "core/explore.hpp"
#include "fault/simulator.hpp"
#include "gate/bench_format.hpp"
#include "obs/json.hpp"
#include "rt/checkpoint.hpp"
#include "rt/control.hpp"
#include "rtl/edif.hpp"
#include "rtl/sexpr.hpp"
#include "sim/cstp.hpp"
#include "sim/lane_engine.hpp"
#include "sim/session.hpp"
#include "tpg/design.hpp"
#include "tpg/synthesize.hpp"

namespace bibs {
namespace {

constexpr std::int64_t kNoStall = std::numeric_limits<std::int64_t>::max();

// ---------------------------------------------------------------- control --

TEST(CancelToken, CopiesShareStateAndCancellationIsIdempotent) {
  rt::CancelToken a;
  rt::CancelToken b = a;
  EXPECT_FALSE(a.cancelled());
  b.request_cancel();
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
}

TEST(CancelToken, ChildObservesAncestorButNotViceVersa) {
  rt::CancelToken root;
  rt::CancelToken leaf = root.child().child();
  EXPECT_FALSE(leaf.cancelled());
  root.request_cancel();
  EXPECT_TRUE(leaf.cancelled());

  rt::CancelToken parent2;
  rt::CancelToken child2 = parent2.child();
  child2.request_cancel();
  EXPECT_TRUE(child2.cancelled());
  EXPECT_FALSE(parent2.cancelled());
}

TEST(CancelToken, CancellationCrossesThreads) {
  rt::CancelToken t;
  std::thread other([copy = t]() mutable { copy.request_cancel(); });
  other.join();
  EXPECT_TRUE(t.cancelled());
}

TEST(Deadline, DefaultNeverExpires) {
  const rt::Deadline d;
  EXPECT_TRUE(d.unbounded());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), std::chrono::nanoseconds::max());
}

TEST(Deadline, PastDeadlineIsExpired) {
  const rt::Deadline d =
      rt::Deadline::at(rt::Deadline::Clock::now() - std::chrono::seconds(1));
  EXPECT_FALSE(d.unbounded());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), std::chrono::nanoseconds(0));
}

TEST(Deadline, FutureDeadlineHasRemainingTime) {
  const rt::Deadline d = rt::Deadline::in(std::chrono::hours(1));
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), std::chrono::minutes(59));
}

TEST(RunControl, DefaultNeverInterrupts) {
  const rt::RunControl ctl;
  EXPECT_EQ(ctl.interruption(0), rt::RunStatus::kFinished);
  EXPECT_EQ(ctl.interruption(1'000'000'000), rt::RunStatus::kFinished);
}

TEST(RunControl, StopConditionPriorityIsCancelDeadlineBudget) {
  rt::RunControl ctl;
  ctl.deadline =
      rt::Deadline::at(rt::Deadline::Clock::now() - std::chrono::seconds(1));
  ctl.budget = 10;
  EXPECT_EQ(ctl.interruption(100), rt::RunStatus::kDeadlineExceeded);
  ctl.token.request_cancel();
  EXPECT_EQ(ctl.interruption(100), rt::RunStatus::kCancelled);

  rt::RunControl budget_only;
  budget_only.budget = 10;
  EXPECT_EQ(budget_only.interruption(9), rt::RunStatus::kFinished);
  EXPECT_EQ(budget_only.interruption(10), rt::RunStatus::kBudgetExhausted);
}

TEST(RunStatus, ToStringCoversAllValues) {
  EXPECT_STREQ(rt::to_string(rt::RunStatus::kFinished), "finished");
  EXPECT_STREQ(rt::to_string(rt::RunStatus::kCancelled), "cancelled");
  EXPECT_STREQ(rt::to_string(rt::RunStatus::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(rt::to_string(rt::RunStatus::kBudgetExhausted),
               "budget_exhausted");
}

// -------------------------------------------------------------- fault sim --

// 16-wide AND cone: its input stuck-at faults are random-pattern resistant
// (one specific pattern in 2^16 detects each), so random runs keep live
// faults for thousands of patterns instead of saturating in one block.
gate::Netlist resistant() {
  gate::Netlist nl;
  gate::Bus ins;
  for (int i = 0; i < 16; ++i)
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  const gate::NetId all = nl.add_gate(gate::GateType::kAnd, ins, "all");
  const gate::NetId any =
      nl.add_gate(gate::GateType::kOr, {ins[0], ins[1]}, "any");
  nl.mark_output(all, "y_all");
  nl.mark_output(any, "y_any");
  return nl;
}

TEST(FaultSimRt, CancelFromAnotherThreadStopsWithinOneBlock) {
  const gate::Netlist nl = resistant();
  fault::FaultSimulator sim(nl, fault::FaultList::full(nl));

  rt::RunControl ctl;
  std::atomic<int> blocks{0};
  // Constant patterns keep every resistant fault alive forever; without the
  // cancel this run would only stop at the (absurd) max_patterns.
  const auto gen = [&](std::uint64_t* words) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i)
      words[i] = 0xAAAA5555AAAA5555ull;
    if (++blocks == 4) {
      std::thread canceller([&ctl] { ctl.token.request_cancel(); });
      canceller.join();  // join = the cancel happens-before the next poll
    }
    return 64;
  };

  const fault::CoverageCurve curve =
      sim.run(gen, std::int64_t{1} << 40, kNoStall, ctl);
  EXPECT_EQ(curve.status, rt::RunStatus::kCancelled);
  // The in-flight 64-pattern block finishes; the next poll stops the run.
  EXPECT_EQ(curve.patterns_run, 4 * 64);
  EXPECT_EQ(blocks.load(), 4);
  EXPECT_EQ(curve.detected_at.size(), sim.faults().size());
}

TEST(FaultSimRt, ExpiredDeadlineStopsBeforeAnyPattern) {
  const gate::Netlist nl = resistant();
  fault::FaultSimulator sim(nl, fault::FaultList::full(nl));
  rt::RunControl ctl;
  ctl.deadline = rt::Deadline::in(std::chrono::nanoseconds(0));
  Xoshiro256 rng(1);
  const fault::CoverageCurve curve = sim.run_random(rng, 4096, kNoStall, ctl);
  EXPECT_EQ(curve.status, rt::RunStatus::kDeadlineExceeded);
  EXPECT_EQ(curve.patterns_run, 0);
  EXPECT_EQ(curve.detected_count(), 0u);
}

TEST(FaultSimRt, BudgetStopsWithinOneBlock) {
  const gate::Netlist nl = resistant();
  fault::FaultSimulator sim(nl, fault::FaultList::full(nl));
  rt::RunControl ctl;
  ctl.budget = 1000;
  Xoshiro256 rng(7);
  const fault::CoverageCurve curve =
      sim.run_random(rng, 1 << 20, kNoStall, ctl);
  EXPECT_EQ(curve.status, rt::RunStatus::kBudgetExhausted);
  EXPECT_GE(curve.patterns_run, 1000);
  EXPECT_LT(curve.patterns_run, 1000 + 64);
}

TEST(FaultSimRt, CheckpointResumeIsBitExact) {
  const gate::Netlist nl = resistant();
  const fault::FaultList fl = fault::FaultList::full(nl);

  // Reference: one uninterrupted 4096-pattern random run.
  fault::FaultSimulator ref_sim(nl, fl);
  Xoshiro256 ref_rng(42);
  const fault::CoverageCurve ref = ref_sim.run_random(ref_rng, 4096);
  ASSERT_EQ(ref.status, rt::RunStatus::kFinished);
  ASSERT_GT(ref.detected_count(), 0u);
  ASSERT_LT(ref.detected_count(), fl.size());  // resistant faults survive

  // Same run interrupted at 1024 patterns by budget, checkpointed through a
  // JSON round trip, resumed into a *wrong-seeded* generator: the restored
  // PRNG state must make the result identical anyway.
  fault::FaultSimulator sim(nl, fl);
  Xoshiro256 rng(42);
  rt::RunControl ctl;
  ctl.budget = 1024;
  const fault::CoverageCurve part =
      sim.run_random(rng, 4096, kNoStall, ctl);
  ASSERT_EQ(part.status, rt::RunStatus::kBudgetExhausted);
  ASSERT_EQ(part.patterns_run, 1024);

  const rt::SimCheckpoint saved = sim.make_checkpoint(part, &rng);
  const rt::SimCheckpoint loaded =
      rt::SimCheckpoint::from_json(obs::Json::parse(saved.to_json().dump()));
  EXPECT_EQ(loaded.patterns_run, 1024);
  EXPECT_TRUE(loaded.has_rng);

  fault::FaultSimulator resumed_sim(nl, fl);
  Xoshiro256 wrong_rng(999);
  const fault::CoverageCurve resumed =
      resumed_sim.run_random(wrong_rng, 4096, kNoStall, {}, &loaded);
  EXPECT_EQ(resumed.status, rt::RunStatus::kFinished);
  EXPECT_EQ(resumed.patterns_run, ref.patterns_run);
  EXPECT_EQ(resumed.detected_at, ref.detected_at);
}

TEST(FaultSimRt, CheckpointFileRoundTrip) {
  rt::SimCheckpoint ck;
  ck.patterns_run = 192;
  ck.detected_at = {-1, 5, 130, -1};
  ck.has_rng = true;
  ck.rng_state = {0xDEADBEEFCAFEBABEull, 1, 0xFFFFFFFFFFFFFFFFull, 42};

  const std::string path = testing::TempDir() + "/bibs_sim_ck.json";
  ck.save(path);
  const rt::SimCheckpoint back = rt::SimCheckpoint::load(path);
  EXPECT_EQ(back.patterns_run, ck.patterns_run);
  EXPECT_EQ(back.detected_at, ck.detected_at);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  std::filesystem::remove(path);
}

TEST(FaultSimRt, CheckpointRejectsWrongFaultCount) {
  const gate::Netlist nl = resistant();
  fault::FaultSimulator sim(nl, fault::FaultList::full(nl));
  rt::SimCheckpoint ck;
  ck.detected_at.assign(3, -1);  // wrong size
  Xoshiro256 rng(1);
  EXPECT_THROW(sim.run_random(rng, 64, kNoStall, {}, &ck), DesignError);
}

TEST(FaultSimRt, MalformedCheckpointJsonIsRejected) {
  EXPECT_THROW(rt::SimCheckpoint::from_json(obs::Json::parse("{}")),
               ParseError);
  EXPECT_THROW(rt::SessionCheckpoint::from_json(obs::Json::parse(
                   R"({"kind":"bibs.sim_checkpoint","version":1})")),
               ParseError);
  rt::SimCheckpoint no_rng;
  no_rng.detected_at = {-1};
  Xoshiro256 rng(1);
  EXPECT_THROW(no_rng.restore_rng(rng), DesignError);
}

// ---------------------------------------------------------------- session --

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

TEST(SessionRt, ExpiredDeadlineReturnsPartialReport) {
  const Rig s = make_rig();
  ASSERT_FALSE(s.kernels.empty());
  const sim::BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const fault::FaultList faults = session.kernel_faults();

  rt::RunControl ctl;
  ctl.deadline = rt::Deadline::in(std::chrono::nanoseconds(0));
  const sim::SessionReport rep = session.run(faults, 256, ctl);
  EXPECT_EQ(rep.status, rt::RunStatus::kDeadlineExceeded);
  EXPECT_EQ(rep.detected_at_outputs, 0u);
  EXPECT_EQ(rep.detected_by_signature, 0u);
  EXPECT_EQ(rep.total_faults, faults.size());
}

TEST(SessionRt, CheckpointResumeMatchesUninterruptedRun) {
  const Rig s = make_rig();
  ASSERT_FALSE(s.kernels.empty());
  sim::BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  // Pin 64-lane (63-fault) batches so "budget for exactly one batch" below
  // stops mid-run whatever lane backend the host resolves.
  session.set_batch_lanes(64);
  const fault::FaultList faults = session.kernel_faults();
  ASSERT_GT(faults.size(), 63u);  // at least two 63-fault batches

  const std::int64_t cycles = 256;
  const sim::SessionReport full = session.run(faults, cycles);
  ASSERT_EQ(full.status, rt::RunStatus::kFinished);

  // Budget for exactly one batch: the run completes batch 0, then stops.
  rt::RunControl ctl;
  ctl.budget = cycles;
  rt::SessionCheckpoint ck;
  const sim::SessionReport part =
      session.run(faults, cycles, ctl, nullptr, &ck);
  EXPECT_EQ(part.status, rt::RunStatus::kBudgetExhausted);
  EXPECT_EQ(ck.batches_done, 1u);
  EXPECT_LT(part.detected_by_signature, full.detected_by_signature);
  // Batch 0 produced the golden signatures already.
  EXPECT_EQ(part.golden_signatures, full.golden_signatures);

  const rt::SessionCheckpoint loaded = rt::SessionCheckpoint::from_json(
      obs::Json::parse(ck.to_json().dump()));
  const sim::SessionReport resumed =
      session.run(faults, cycles, {}, &loaded);
  EXPECT_EQ(resumed.status, rt::RunStatus::kFinished);
  EXPECT_EQ(resumed.detected_at_outputs, full.detected_at_outputs);
  EXPECT_EQ(resumed.detected_by_signature, full.detected_by_signature);
  EXPECT_EQ(resumed.aliased, full.aliased);
  EXPECT_EQ(resumed.golden_signatures, full.golden_signatures);
}

TEST(SessionRt, ResumeRejectsMismatchedCheckpoint) {
  const Rig s = make_rig();
  ASSERT_FALSE(s.kernels.empty());
  const sim::BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const fault::FaultList faults = session.kernel_faults();
  rt::SessionCheckpoint ck;
  ck.cycles = 999;  // run below asks for 256
  ck.total_faults = faults.size();
  ck.detected_at_outputs.assign(faults.size(), 0);
  ck.detected_by_signature.assign(faults.size(), 0);
  EXPECT_THROW(session.run(faults, 256, {}, &ck), DesignError);
  // 255-fault batches need 256 lanes, which no backend runs: refused
  // without naming a set_batch_lanes() width that does not exist.
  ck.cycles = 256;
  ck.batch_faults = 255;
  try {
    session.run(faults, 256, {}, &ck);
    ADD_FAILURE() << "a 255-fault checkpoint resumed";
  } catch (const DesignError& e) {
    EXPECT_EQ(std::string(e.what()).find("set_batch_lanes"), std::string::npos)
        << e.what();
  }
}

TEST(SessionRt, SessionCheckpointFileRoundTrip) {
  rt::SessionCheckpoint ck;
  ck.cycles = 256;
  ck.total_faults = 2;
  ck.batches_done = 1;
  ck.batch_faults = 511;  // avx512-wide batches
  ck.detected_at_outputs = {1, 0};
  ck.detected_by_signature = {0, 1};
  ck.golden_signatures = {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};

  const std::string path = testing::TempDir() + "/bibs_session_ck.json";
  ck.save(path);
  const rt::SessionCheckpoint back = rt::SessionCheckpoint::load(path);
  EXPECT_EQ(back.cycles, ck.cycles);
  EXPECT_EQ(back.batches_done, ck.batches_done);
  EXPECT_EQ(back.batch_faults, ck.batch_faults);
  EXPECT_EQ(back.detected_at_outputs, ck.detected_at_outputs);
  EXPECT_EQ(back.detected_by_signature, ck.detected_by_signature);
  EXPECT_EQ(back.golden_signatures, ck.golden_signatures);
  std::filesystem::remove(path);

  // Files written before the batch_faults field always meant 63-fault
  // (scalar64) batches; loading one must default accordingly.
  obs::Json legacy = obs::Json::object();
  legacy["kind"] = obs::Json("bibs.session_checkpoint");
  legacy["version"] = obs::Json(1);
  legacy["cycles"] = obs::Json(256);
  legacy["total_faults"] = obs::Json(1);
  legacy["batches_done"] = obs::Json(0);
  obs::Json det = obs::Json::array();
  det.push_back(obs::Json(true));
  legacy["detected_at_outputs"] = det;
  obs::Json sig = obs::Json::array();
  sig.push_back(obs::Json(false));
  legacy["detected_by_signature"] = sig;
  legacy["golden_signatures"] = obs::Json::array();
  EXPECT_EQ(rt::SessionCheckpoint::from_json(legacy).batch_faults, 63u);
}

// ----------------------------------------------- other interruptible loops --

TEST(CstpRt, CancelledRunReturnsEmptyPartialReport) {
  const Rig s = make_rig();
  sim::CstpSession cstp(s.elab.netlist);
  const fault::FaultList faults = fault::FaultList::collapsed(s.elab.netlist);
  rt::RunControl ctl;
  ctl.token.request_cancel();
  const sim::CstpReport rep = cstp.run(faults, 64, ctl);
  EXPECT_EQ(rep.status, rt::RunStatus::kCancelled);
  EXPECT_EQ(rep.detected_ideal, 0u);
  EXPECT_EQ(rep.detected_by_signature, 0u);
  const std::vector<gate::NetId> watch{s.elab.netlist.dffs().front()};
  EXPECT_EQ(cstp.cycles_to_cover(watch, 1, 1024, ctl), -1);
}

TEST(SynthesizeRt, CancelledSynthesisReturnsPartial) {
  const tpg::TpgDesign d = tpg::sc_tpg(tpg::GeneralizedStructure::single_cone(
      {{"R1", 4}, {"R2", 4}}, {1, 0}));
  rt::RunControl ctl;
  ctl.token.request_cancel();
  const tpg::SynthesizedTpg out = tpg::synthesize_tpg(d, {}, ctl);
  EXPECT_EQ(out.status, rt::RunStatus::kCancelled);
  EXPECT_EQ(tpg::synthesize_tpg(d).status, rt::RunStatus::kFinished);
}

TEST(ExploreRt, CancelledExplorationReturnsBaselinePoint) {
  const rtl::Netlist n = circuits::make_c3a2m();
  rt::RunControl ctl;
  ctl.token.request_cancel();
  rt::RunStatus status = rt::RunStatus::kFinished;
  const auto frontier = core::explore_design_space(n, ctl, &status);
  EXPECT_EQ(status, rt::RunStatus::kCancelled);
  ASSERT_FALSE(frontier.empty());  // the unexplored baseline is always there
}

TEST(LaneEngine, RejectsOutOfRangeFaults) {
  const Rig s = make_rig();
  const fault::Fault bogus_net{
      static_cast<gate::NetId>(s.elab.netlist.net_count()), -1, true};
  EXPECT_THROW(
      sim::LaneEngine(s.elab.netlist,
                      std::span<const fault::Fault>(&bogus_net, 1)),
      DesignError);
  const fault::Fault bogus_pin{s.elab.netlist.dffs().front(), 99, false};
  EXPECT_THROW(
      sim::LaneEngine(s.elab.netlist,
                      std::span<const fault::Fault>(&bogus_pin, 1)),
      DesignError);
}

// ---------------------------------------------------------------- parsers --

TEST(SexprHardening, ErrorsCarryLineAndColumn) {
  try {
    rtl::parse_sexpr("(a\n (b\n");
    FAIL() << "unterminated list parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("opened at 2:2"), std::string::npos)
        << e.what();
  }
  try {
    rtl::parse_sexpr("  )");
    FAIL() << "stray ')' parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("1:3"), std::string::npos)
        << e.what();
  }
}

TEST(SexprHardening, NodesRememberTheirPositions) {
  const rtl::Sexpr s = rtl::parse_sexpr("(foo\n  bar)");
  EXPECT_EQ(s.line, 1);
  EXPECT_EQ(s.col, 1);
  EXPECT_EQ(s.at(1).line, 2);
  EXPECT_EQ(s.at(1).col, 3);
}

TEST(SexprHardening, DepthLimitIsEnforced) {
  rtl::ParseLimits limits;
  limits.max_depth = 2;
  EXPECT_NO_THROW(rtl::parse_sexpr("((a))", limits));
  EXPECT_THROW(rtl::parse_sexpr("(((a)))", limits), ParseError);
  // The default limit guards the corpus' 10k-deep input too (tested below
  // through parse_edif).
}

TEST(SexprHardening, TokenLimitIsEnforced) {
  rtl::ParseLimits limits;
  limits.max_tokens = 3;
  EXPECT_NO_THROW(rtl::parse_sexpr("(a b)", limits));
  EXPECT_THROW(rtl::parse_sexpr("(a b c)", limits), ParseError);
}

TEST(BenchHardening, ErrorsCarryLineAndColumn) {
  try {
    gate::parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    FAIL() << "unknown gate type parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("3:1"), std::string::npos)
        << e.what();
  }
}

TEST(BenchHardening, ResolveDepthLimitIsEnforced) {
  std::ostringstream os;
  os << "INPUT(a)\nOUTPUT(n5000)\n";
  // Deepest gate first: every operand is a forward reference, so resolving
  // n5000 recurses through the entire not-yet-memoized chain.
  for (int i = 5000; i >= 0; --i)
    os << "n" << i << " = BUF(" << (i == 0 ? std::string("a")
                                           : "n" + std::to_string(i - 1))
       << ")\n";
  try {
    gate::parse_bench(os.str());
    FAIL() << "5000-deep chain parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper"), std::string::npos)
        << e.what();
  }
}

TEST(MalformedCorpus, EveryFileRaisesPositionedParseError) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(BIBS_SOURCE_DIR) / "tests" / "data" / "bad";
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  const std::regex position(R"([0-9]+:[0-9]+)");
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    ++files;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << entry.path();
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    try {
      if (entry.path().extension() == ".bench")
        (void)gate::parse_bench(text);
      else
        (void)rtl::parse_edif(text);
      FAIL() << entry.path() << " parsed without error";
    } catch (const ParseError& e) {
      EXPECT_TRUE(std::regex_search(std::string(e.what()), position))
          << entry.path() << " error lacks line:column — " << e.what();
    }
  }
  EXPECT_GE(files, 5u);
}

}  // namespace
}  // namespace bibs
