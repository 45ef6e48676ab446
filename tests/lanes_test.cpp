// Tests for the lane-width-parameterized evaluation backends (gate/lanes):
// registry and CPUID-gated dispatch, the BIBS_LANES override, the
// FaultSimulator width shim, and width-invariance of the consumers
// (LaneEngine lanes, BIST session / CSTP reports, checkpoint width
// validation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "circuits/datapaths.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/designer.hpp"
#include "fault/fault.hpp"
#include "fault/simulator.hpp"
#include "gate/lanes.hpp"
#include "gate/synth.hpp"
#include "obs/report.hpp"
#include "rt/checkpoint.hpp"
#include "sim/cstp.hpp"
#include "sim/lane_engine.hpp"
#include "sim/session.hpp"

namespace bibs {
namespace {

using fault::Fault;
using fault::FaultList;
using fault::FaultSimulator;
using gate::LaneBackend;
using gate::NetId;
using gate::Netlist;

/// Restores the process-wide backend latch (and BIBS_LANES) on scope exit so
/// tests that override dispatch cannot leak into later tests.
struct BackendGuard {
  ~BackendGuard() {
    unsetenv("BIBS_LANES");
    gate::set_lane_backend(nullptr);
  }
};

// ------------------------------------------------------------- registry --

TEST(LaneRegistry, ScalarFirstThenAscendingWidths) {
  const auto& all = gate::all_lane_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), &gate::scalar_lane_backend());
  EXPECT_STREQ(all.front()->name, "scalar64");
  EXPECT_EQ(all.front()->words, 1);
  EXPECT_TRUE(all.front()->supported());
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1]->words, all[i]->words) << all[i]->name;
  for (const LaneBackend* lb : all) {
    EXPECT_EQ(lb->lanes, lb->words * gate::kLanesPerWord);
    EXPECT_EQ(gate::find_lane_backend(lb->name), lb);
  }
  EXPECT_EQ(gate::find_lane_backend("sse9"), nullptr);
}

TEST(LaneRegistry, LookupByLanesRespectsCpuSupport) {
  EXPECT_EQ(gate::lane_backend_for_lanes(64), &gate::scalar_lane_backend());
  EXPECT_EQ(gate::lane_backend_for_lanes(65), nullptr);
  for (const LaneBackend* lb : gate::all_lane_backends()) {
    const LaneBackend* hit = gate::lane_backend_for_lanes(lb->lanes);
    if (lb->supported())
      EXPECT_EQ(hit, lb) << lb->name;
    else
      EXPECT_EQ(hit, nullptr) << lb->name;
  }
}

TEST(LaneRegistry, ActiveDefaultsToWidestSupported) {
  BackendGuard guard;
  unsetenv("BIBS_LANES");
  gate::set_lane_backend(nullptr);  // drop any earlier latch
  const LaneBackend& active = gate::active_lane_backend();
  EXPECT_TRUE(active.supported());
  for (const LaneBackend* lb : gate::all_lane_backends()) {
    if (lb->supported()) {
      EXPECT_LE(lb->words, active.words) << lb->name;
    }
  }
  // The resolution is surfaced in obs reports.
  EXPECT_EQ(obs::Report::collect().labels.at("lanes"),
            std::string(active.name));
}

TEST(LaneRegistry, EnvOverridePinsTheBackend) {
  BackendGuard guard;
  setenv("BIBS_LANES", "scalar64", 1);
  gate::set_lane_backend(nullptr);  // re-resolve from the environment
  EXPECT_EQ(&gate::active_lane_backend(), &gate::scalar_lane_backend());

  setenv("BIBS_LANES", "not-a-backend", 1);
  gate::set_lane_backend(nullptr);
  EXPECT_THROW(gate::active_lane_backend(), DesignError);
}

TEST(LaneRegistry, SetLaneBackendRejectsUnsupported) {
  BackendGuard guard;
  for (const LaneBackend* lb : gate::all_lane_backends()) {
    if (lb->supported()) {
      gate::set_lane_backend(lb);
      EXPECT_EQ(&gate::active_lane_backend(), lb);
    } else {
      EXPECT_THROW(gate::set_lane_backend(lb), DesignError) << lb->name;
    }
  }
}

// ------------------------------------------------------------- LaneWord --

TEST(LaneWord, OpsActPerWord) {
  using W4 = gate::LaneWord<4>;
  const W4 a = W4::broadcast(0xF0F0F0F0F0F0F0F0ull);
  W4 b = W4::zero();
  b.w[2] = ~0ull;
  EXPECT_TRUE((a & b).w[2] == a.w[2] && (a & b).w[0] == 0);
  EXPECT_TRUE((a | b).w[2] == ~0ull && (a | b).w[1] == a.w[1]);
  EXPECT_TRUE((a ^ a) == W4::zero());
  EXPECT_TRUE(~W4::zero() == W4::ones());
  EXPECT_TRUE(a.andnot(a) == W4::zero());
  EXPECT_FALSE(W4::zero().any());
  EXPECT_TRUE(b.any());
  std::uint64_t out[4];
  a.store(out);
  EXPECT_TRUE(W4::load(out) == a);
}

// -------------------------------------------------- fault-sim width shim --

/// FaultSimulator runs 64-lane scalar blocks only; its set_lane_backend
/// survives as a shim that accepts a one-word backend and refuses wider ones.
TEST(LaneBackends, FaultSimulatorRejectsWideBackends) {
  const LaneBackend* wide = gate::find_lane_backend("avx512");
  if (!wide) GTEST_SKIP() << "avx512 backend not compiled in";
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.mark_output(nl.add_gate(gate::GateType::kAnd, {a, b}, "y"));
  FaultSimulator sim(nl, FaultList::collapsed(nl));
  EXPECT_NO_THROW(sim.set_lane_backend(&gate::scalar_lane_backend()));
  EXPECT_THROW(sim.set_lane_backend(wide), DesignError);
}

// ------------------------------------------------- LaneEngine invariance --

/// A wide engine's lanes must equal the lanes of scalar64 engines running
/// the same faults in 63-fault sub-batches under the same stimulus.
TEST(LaneBackends, WideLaneEngineMatchesScalarSubBatches) {
  const LaneBackend& active = gate::active_lane_backend();
  if (active.words == 1)
    GTEST_SKIP() << "host resolves to scalar64; no wide backend to compare";

  const Netlist nl = gate::elaborate(circuits::make_c3a2m()).netlist;
  const FaultList all = FaultList::full(nl);
  const std::size_t want = std::min<std::size_t>(
      all.size(), static_cast<std::size_t>(active.lanes) - 1);
  const std::vector<Fault> batch(all.faults().begin(),
                                 all.faults().begin() + want);
  ASSERT_GT(batch.size(), 63u);  // actually exercises lanes beyond word 0

  sim::LaneEngine wide(nl, batch, &active);
  std::vector<sim::LaneEngine> narrow;
  narrow.reserve((batch.size() + 62) / 63);
  for (std::size_t base = 0; base < batch.size(); base += 63)
    narrow.emplace_back(
        nl,
        std::span<const Fault>(batch).subspan(
            base, std::min<std::size_t>(63, batch.size() - base)),
        &gate::scalar_lane_backend());

  Xoshiro256 rng(7);
  const std::vector<NetId>& dffs = nl.dffs();
  ASSERT_FALSE(dffs.empty());
  for (int t = 0; t < 8; ++t) {
    for (NetId d : dffs) {
      // Lane-uniform drive: lane l and lane l % 64 must see the same bit
      // for the wide and narrow engines to be comparable lane by lane.
      const std::uint64_t bcast = (rng.next() & 1u) ? ~0ull : 0ull;
      wide.set_dff_state(d, bcast);
      for (sim::LaneEngine& e : narrow) e.set_dff_state(d, bcast);
    }
    wide.eval();
    for (sim::LaneEngine& e : narrow) e.eval();
    for (NetId id = 0; static_cast<std::size_t>(id) < nl.net_count(); ++id) {
      const std::uint64_t* vw = wide.value_words(id);
      // Lane 0 (fault-free) agrees with every sub-batch engine's lane 0.
      ASSERT_EQ(vw[0] & 1u, narrow[0].value(id) & 1u) << "net " << id;
      // Fault k rides lane k+1 of the wide engine and lane (k%63)+1 of
      // sub-batch engine k/63.
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const std::size_t lane = k + 1;
        const std::uint64_t wide_bit = (vw[lane >> 6] >> (lane & 63)) & 1u;
        const std::uint64_t narrow_bit =
            (narrow[k / 63].value(id) >> (k % 63 + 1)) & 1u;
        ASSERT_EQ(wide_bit, narrow_bit)
            << "net " << id << " fault " << k << " cycle " << t;
      }
    }
    wide.clock();
    for (sim::LaneEngine& e : narrow) e.clock();
  }
}

// ------------------------------------------- session / CSTP invariance --

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

TEST(LaneBackends, SessionReportIsWidthInvariant) {
  const Rig s = make_rig();
  ASSERT_FALSE(s.kernels.empty());
  sim::BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const FaultList faults = session.kernel_faults();
  ASSERT_GT(faults.size(), 63u);  // wide batches actually fold sub-batches

  session.set_batch_lanes(64);
  const sim::SessionReport narrow = session.run(faults, 256);
  ASSERT_GT(narrow.detected_by_signature, 0u);

  for (const LaneBackend* lb : gate::all_lane_backends()) {
    if (!lb->supported() || lb->words == 1) continue;
    session.set_batch_lanes(lb->lanes);
    EXPECT_EQ(session.run(faults, 256), narrow) << lb->name;
  }
  EXPECT_THROW(session.set_batch_lanes(63), DesignError);
}

TEST(LaneBackends, SessionCheckpointRejectsWidthMismatch) {
  const Rig s = make_rig();
  ASSERT_FALSE(s.kernels.empty());
  sim::BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  session.set_batch_lanes(64);
  const FaultList faults = session.kernel_faults();
  rt::SessionCheckpoint ck;
  const sim::SessionReport rep = session.run(faults, 64, {}, nullptr, &ck);
  ASSERT_EQ(rep.status, rt::RunStatus::kFinished);
  EXPECT_EQ(ck.batch_faults, 63u);
  // A checkpoint written at another width cannot seed this run's batches;
  // the refusal names set_batch_lanes(512) only where a backend runs it.
  ck.batch_faults = 511;
  try {
    session.run(faults, 64, {}, &ck);
    ADD_FAILURE() << "a 511-fault checkpoint resumed a 63-fault run";
  } catch (const DesignError& e) {
    EXPECT_EQ(std::string(e.what()).find("set_batch_lanes(512)") !=
                  std::string::npos,
              gate::lane_backend_for_lanes(512) != nullptr)
        << e.what();
  }
}

TEST(LaneBackends, CstpReportIsWidthInvariant) {
  const Rig s = make_rig();
  sim::CstpSession cstp(s.elab.netlist);
  const FaultList faults = FaultList::collapsed(s.elab.netlist);
  ASSERT_GT(faults.size(), 63u);

  cstp.set_batch_lanes(64);
  const sim::CstpReport narrow = cstp.run(faults, 128);

  for (const LaneBackend* lb : gate::all_lane_backends()) {
    if (!lb->supported() || lb->words == 1) continue;
    cstp.set_batch_lanes(lb->lanes);
    const sim::CstpReport wide = cstp.run(faults, 128);
    EXPECT_EQ(wide.detected_ideal, narrow.detected_ideal) << lb->name;
    EXPECT_EQ(wide.detected_by_signature, narrow.detected_by_signature)
        << lb->name;
  }
  EXPECT_THROW(cstp.set_batch_lanes(1), DesignError);
}

}  // namespace
}  // namespace bibs
