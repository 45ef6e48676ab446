// End-to-end BIST session tests: TPG stream -> elaborated kernel -> MISR,
// with parallel-fault injection and signature-based detection (aliasing
// modelled, not assumed away).

#include <gtest/gtest.h>

#include "circuits/datapaths.hpp"
#include "circuits/figures.hpp"
#include "core/designer.hpp"
#include "gate/lanes.hpp"
#include "sim/session.hpp"

namespace bibs::sim {
namespace {

struct Rig {
  rtl::Netlist n;
  gate::Elaboration elab;
  core::DesignResult design;
  std::vector<core::Kernel> kernels;
};

Rig make(const rtl::Netlist& netlist) {
  Rig s;
  s.n = netlist;
  s.elab = gate::elaborate(s.n);
  s.design = core::design_bibs(s.n);
  for (const core::Kernel& k : s.design.report.kernels)
    if (!k.trivial) s.kernels.push_back(k);
  return s;
}

TEST(BistSession, Fig2FullPeriodDetectsEverything) {
  // fig2 at width 4: one kernel, 8-bit TPG, full period 255 patterns.
  Rig s = make(circuits::make_fig2(4));
  ASSERT_EQ(s.kernels.size(), 1u);
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const auto faults = session.kernel_faults();
  ASSERT_GT(faults.size(), 0u);
  const auto rep = session.run(faults);
  EXPECT_EQ(rep.total_faults, faults.size());
  // Two cascaded inverter banks: everything is detectable and the full
  // functionally exhaustive run must find it all at the output D pins.
  EXPECT_EQ(rep.detected_at_outputs, rep.total_faults);
  // MISR aliasing can in principle eat a fault, but not many.
  EXPECT_GE(rep.detected_by_signature, rep.total_faults - 1);
  EXPECT_EQ(rep.aliased,
            rep.detected_at_outputs - rep.detected_by_signature);
}

TEST(BistSession, GoldenSignatureIsDeterministic) {
  Rig s = make(circuits::make_fig2(4));
  BistSession a(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  BistSession b(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const auto ra = a.run(fault::FaultList::from_faults({}));
  const auto rb = b.run(fault::FaultList::from_faults({}));
  ASSERT_EQ(ra.golden_signatures.size(), rb.golden_signatures.size());
  EXPECT_EQ(ra.golden_signatures, rb.golden_signatures);
  EXPECT_NE(ra.golden_signatures[0], 0u);  // a real signature accumulated
}

TEST(BistSession, TpgMatchesKernelStructure) {
  Rig s = make(circuits::make_fig12a(2));
  ASSERT_EQ(s.kernels.size(), 1u);
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  // Three 2-bit registers with depths 2,1,0: 6-stage LFSR, 2 extra FFs.
  EXPECT_EQ(session.tpg().lfsr_stages, 6);
  EXPECT_EQ(session.tpg().extra_ffs(), 2);
}

TEST(BistSession, Fig12aFunctionallyExhaustiveDetectsAllAtOutputs) {
  // Width-4 version: 12-stage LFSR, full functionally exhaustive session of
  // 2^12-1(+d) clocks. The ideal observer at the output-register D pins sees
  // every fault (Theorem 4 made executable at gate level).
  Rig s = make(circuits::make_fig12a(4));
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const auto faults = session.kernel_faults();
  const auto rep = session.run(faults);
  EXPECT_EQ(rep.detected_at_outputs, rep.total_faults);
}

TEST(BistSession, NonResonantLengthKeepsAliasingLow) {
  // At a session length that is not a multiple of the MISR order, 4-bit
  // MISRs alias only a few percent.
  Rig s = make(circuits::make_fig12a(4));
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const auto faults = session.kernel_faults();
  const auto rep = session.run(faults, 1024);
  EXPECT_GE(static_cast<double>(rep.detected_by_signature) /
                static_cast<double>(rep.total_faults),
            0.9);
}

TEST(BistSession, FullPeriodResonanceInflatesAliasing) {
  // A measured artifact worth pinning down: when the MISR's state-transition
  // order (2^4-1 = 15) divides the exhaustive session length (2^12-1), the
  // periodic error polynomials cancel class-wise and aliasing spikes well
  // above the 2^-w folklore rate.
  Rig s = make(circuits::make_fig12a(4));
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const auto faults = session.kernel_faults();
  const auto resonant = session.run(faults, 4095);
  const auto offset = session.run(faults, 1024);
  EXPECT_GT(resonant.aliased * 2, offset.aliased * 3);  // at least 1.5x worse
}

TEST(BistSession, TruncatedSessionDetectsFewerFaults) {
  Rig s = make(circuits::make_fig12a(4));
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const auto faults = session.kernel_faults();
  const auto longer = session.run(faults, 1024);
  const auto brief = session.run(faults, 4);  // only four clocks
  EXPECT_LT(brief.detected_at_outputs, longer.detected_at_outputs);
}

TEST(BistSession, NarrowMisrsAliasBadly) {
  // Width-2 registers mean 2-bit MISRs and a period-3 TPG: signature-based
  // detection collapses even though the ideal observer still sees every
  // fault. This is why realistic BIST uses wide signature registers.
  Rig s = make(circuits::make_fig12a(2));
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels[0]);
  const auto faults = session.kernel_faults();
  const auto rep = session.run(faults);
  EXPECT_EQ(rep.detected_at_outputs, rep.total_faults);
  EXPECT_LT(rep.detected_by_signature, rep.total_faults);
  EXPECT_GT(rep.aliased, 0u);
}

TEST(BistSession, Fig4KernelsBothRunnable) {
  // Width-4 fig4: two kernels; both sessions run, the ideal observer sees
  // every detectable fault, and signatures catch nearly all of them at a
  // non-resonant session length.
  Rig s;
  s.n = circuits::make_fig4(4);
  s.elab = gate::elaborate(s.n);
  core::BilboSet b;
  for (const std::string& r : circuits::fig4_example_bilbos())
    b.insert(s.n.find_register(r));
  const auto rep = core::check_bibs_testable(s.n, b);
  ASSERT_TRUE(rep.ok);
  for (const core::Kernel& k : rep.kernels) {
    if (k.trivial) continue;
    BistSession session(s.n, s.elab, b, k);
    const auto faults = session.kernel_faults();
    const auto r = session.run(faults, 1000);
    EXPECT_GE(r.detected_by_signature * 10, faults.size() * 9)
        << "kernel with " << k.blocks.size() << " blocks";
  }
}

TEST(BistSession, AliasingIsRareAcrossSeeds) {
  // Aggregate aliasing across both fig4 kernels stays modest.
  Rig s;
  s.n = circuits::make_fig4(4);
  s.elab = gate::elaborate(s.n);
  core::BilboSet b;
  for (const std::string& r : circuits::fig4_example_bilbos())
    b.insert(s.n.find_register(r));
  const auto rep = core::check_bibs_testable(s.n, b);
  std::size_t total = 0, aliased = 0;
  for (const core::Kernel& k : rep.kernels) {
    if (k.trivial) continue;
    BistSession session(s.n, s.elab, b, k);
    const auto faults = session.kernel_faults();
    const auto r = session.run(faults, 1000);
    total += r.detected_at_outputs;
    aliased += r.aliased;
  }
  EXPECT_GT(total, 0u);
  EXPECT_LE(aliased * 8, total);  // < 12.5% with 4-bit MISRs
}

// FNV-1a over a checkpoint's per-fault detection flags: pins the whole
// vector (which faults, not just how many) in one literal.
std::uint64_t flags_hash(const std::vector<std::uint8_t>& flags) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint8_t f : flags) {
    h ^= f;
    h *= 1099511628211ull;
  }
  return h;
}

// 256-cycle session on the design's first non-trivial kernel.
struct Pinned {
  SessionReport rep;
  rt::SessionCheckpoint ck;
};

Pinned pinned_run(const rtl::Netlist& netlist, fault::FaultModel model,
                  int lanes) {
  Rig s = make(netlist);
  BistSession session(s.n, s.elab, s.design.bilbo, s.kernels.at(0));
  session.set_fault_model(model);
  session.set_batch_lanes(lanes);
  const fault::FaultList faults = model == fault::FaultModel::kTransition
                                      ? session.kernel_transition_faults()
                                      : session.kernel_faults();
  Pinned p;
  p.rep = session.run(faults, 256, {}, nullptr, &p.ck);
  return p;
}

TEST(BistSession, SignaturesMatchValuesPinnedFromScalarMisr) {
  // Literals recorded from the per-lane scalar lfsr::Misr compaction the
  // session used before it compacted lane-sliced. They pin the golden
  // signatures and *which* faults each signature caught, at 64-lane
  // batches and at the active backend's width.
  struct Case {
    const char* name;
    rtl::Netlist n;
    fault::FaultModel model;
    std::vector<std::uint64_t> golden;
    std::size_t faults, at_outputs, by_signature;
    std::uint64_t sig_flags_hash;
  };
  const Case cases[] = {
      {"fig2(4)", circuits::make_fig2(4), fault::FaultModel::kStuckAt,
       {0xb}, 16, 16, 16, 0xdeddcdeb4df58075ull},
      {"c5a2m", circuits::make_c5a2m(), fault::FaultModel::kStuckAt,
       {0x80}, 1887, 1882, 1876, 0xad2f9f7a3f5467bbull},
      {"c3a2m", circuits::make_c3a2m(), fault::FaultModel::kStuckAt,
       {0x93}, 1717, 1710, 1703, 0x5cc82da64904722cull},
      {"c4a4m", circuits::make_c4a4m(), fault::FaultModel::kStuckAt,
       {0x2c, 0xae}, 2824, 2820, 2807, 0x49acd255f6cfea7eull},
      {"c5a2m transition", circuits::make_c5a2m(),
       fault::FaultModel::kTransition, {0x80}, 1084, 1084, 1083,
       0x94f443a172402c84ull},
  };
  std::vector<int> widths{64};
  if (gate::active_lane_backend().lanes != 64)
    widths.push_back(gate::active_lane_backend().lanes);
  for (const Case& c : cases) {
    for (int lanes : widths) {
      SCOPED_TRACE(std::string(c.name) + " at " + std::to_string(lanes) +
                   " lanes");
      const Pinned p = pinned_run(c.n, c.model, lanes);
      EXPECT_EQ(p.rep.golden_signatures, c.golden);
      EXPECT_EQ(p.rep.total_faults, c.faults);
      EXPECT_EQ(p.rep.detected_at_outputs, c.at_outputs);
      EXPECT_EQ(p.rep.detected_by_signature, c.by_signature);
      EXPECT_EQ(flags_hash(p.ck.detected_by_signature), c.sig_flags_hash);
    }
  }
}

}  // namespace
}  // namespace bibs::sim
