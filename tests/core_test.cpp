// Tests for the BIBS TDM core: the balanced-BISTable predicate, kernel
// extraction, the BIBS and Krasniewski-Albicki designers, scheduling, and
// the Table 2 structural rows (kernels / sessions / BILBOs / maximal delay).

#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/datapaths.hpp"
#include "circuits/figures.hpp"
#include "core/designer.hpp"
#include "core/report.hpp"
#include "core/schedule.hpp"

namespace bibs::core {
namespace {

BilboSet by_names(const rtl::Netlist& n, const std::vector<std::string>& regs) {
  BilboSet b;
  for (const std::string& r : regs) {
    const rtl::ConnId e = n.find_register(r);
    EXPECT_NE(e, -1) << r;
    b.insert(e);
  }
  return b;
}

// ------------------------------------------------------------ Definition 1

TEST(Check, Fig2BoundaryOnlyIsValid) {
  const auto n = circuits::make_fig2();
  const auto rep = check_bibs_testable(n, by_names(n, {"R1", "RO"}));
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.nontrivial_kernel_count(), 1u);
}

TEST(Check, MissingBoundaryRegisterIsViolation) {
  const auto n = circuits::make_fig2();
  const auto rep = check_bibs_testable(n, by_names(n, {"R1"}));
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].kind, Violation::Kind::kUnregisteredBoundary);
}

TEST(Check, SharedRegisterViolation) {
  // Converting only R2 in the middle of fig2 leaves a kernel that both
  // feeds and is fed by R2 (condition 3).
  const auto n = circuits::make_fig2();
  const auto rep = check_bibs_testable(n, by_names(n, {"R1", "RO", "R2"}));
  EXPECT_TRUE(rep.ok);  // C1 and C2 are separate kernels: fine
  // Now a self-loop-ish case: a register from a kernel back into itself.
  auto n2 = circuits::make_fig9();
  // Convert boundary + M1 only: the cycle edge M2 has both endpoints in the
  // merged kernel {B1, B2,...}.
  const auto rep2 = check_bibs_testable(
      n2, by_names(n2, {"P1", "P2", "P3", "P4", "O1", "O2", "M1"}));
  EXPECT_FALSE(rep2.ok);
  bool saw_shared_or_cycle = false;
  for (const auto& v : rep2.violations)
    if (v.kind == Violation::Kind::kSharedRegister ||
        v.kind == Violation::Kind::kCycle)
      saw_shared_or_cycle = true;
  EXPECT_TRUE(saw_shared_or_cycle);
}

TEST(Check, UnbalancedKernelViolation) {
  const auto n = circuits::make_fig1();
  // Insert boundary registers, then check: the F->C URFS is inside the
  // kernel.
  auto m = n;
  ensure_boundary_registers(m);
  BilboSet b;
  for (const auto& c : m.connections())
    if (c.is_register() &&
        (m.block(c.from).kind == rtl::BlockKind::kInput ||
         m.block(c.to).kind == rtl::BlockKind::kOutput))
      b.insert(c.id);
  const auto rep = check_bibs_testable(m, b);
  EXPECT_FALSE(rep.ok);
  bool unbalanced = false;
  for (const auto& v : rep.violations)
    if (v.kind == Violation::Kind::kUnbalanced) unbalanced = true;
  EXPECT_TRUE(unbalanced);
}

// ------------------------------------------------------------- Example 1

TEST(Fig4, PaperSolutionIsValidWithTwoKernels) {
  const auto n = circuits::make_fig4();
  const auto rep =
      check_bibs_testable(n, by_names(n, circuits::fig4_example_bilbos()));
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.nontrivial_kernel_count(), 2u);
}

TEST(Fig4, PartialScanAnalogueViolatesCondition3) {
  // Converting just {R1, R3, R9, R6} — the balance-only analogue of partial
  // scan — leaves registers used as TPG and SA simultaneously (the paper's
  // point in Example 1).
  const auto n = circuits::make_fig4();
  const auto rep = check_bibs_testable(n, by_names(n, {"R1", "R3", "R9", "R6"}));
  EXPECT_FALSE(rep.ok);
}

TEST(Fig4, SessionsMatchExample1) {
  const auto n = circuits::make_fig4();
  const auto rep =
      check_bibs_testable(n, by_names(n, circuits::fig4_example_bilbos()));
  std::vector<Kernel> kernels;
  for (const Kernel& k : rep.kernels)
    if (!k.trivial) kernels.push_back(k);
  ASSERT_EQ(kernels.size(), 2u);
  // Kernel 1: fed by R1, feeds R3/R7/R8/R9. Kernel 2: fed by those, feeds R6.
  auto reg_names = [&](const std::vector<rtl::ConnId>& v) {
    std::vector<std::string> s;
    for (auto e : v) s.push_back(n.connection(e).reg->name);
    std::sort(s.begin(), s.end());
    return s;
  };
  const Kernel& k1 = kernels[0].input_regs.size() == 1 ? kernels[0] : kernels[1];
  const Kernel& k2 = kernels[0].input_regs.size() == 1 ? kernels[1] : kernels[0];
  EXPECT_EQ(reg_names(k1.input_regs), (std::vector<std::string>{"R1"}));
  EXPECT_EQ(reg_names(k1.output_regs),
            (std::vector<std::string>{"R3", "R7", "R8", "R9"}));
  EXPECT_EQ(reg_names(k2.input_regs),
            (std::vector<std::string>{"R3", "R7", "R8", "R9"}));
  EXPECT_EQ(reg_names(k2.output_regs), (std::vector<std::string>{"R6"}));
  // Shared registers force two sessions.
  EXPECT_EQ(schedule_sessions(n, kernels).sessions, 2);
}

TEST(Fig4, DesignerFindsAValidMinimalSet) {
  const auto n = circuits::make_fig4();
  const auto res = design_bibs(n);
  EXPECT_TRUE(res.report.ok);
  // Must include the boundary and be no larger than the paper's 6.
  EXPECT_LE(res.bilbo.size(), 6u);
  EXPECT_GE(res.bilbo.size(), 4u);
  EXPECT_TRUE(res.bilbo.count(n.find_register("R1")));
  EXPECT_TRUE(res.bilbo.count(n.find_register("R6")));
}

// ---------------------------------------------------------------- Figure 9

TEST(Fig9, BibsConverts8Registers43Ffs) {
  const auto n = circuits::make_fig9();
  const auto res = design_bibs(n);
  EXPECT_TRUE(res.report.ok);
  const auto cost = evaluate_design(n, res.bilbo);
  EXPECT_EQ(cost.bilbo_registers, 8u);
  EXPECT_EQ(cost.bilbo_ffs, 43);
  EXPECT_EQ(cost.kernels, 2u);
}

TEST(Fig9, Ka85Converts10Registers52Ffs) {
  const auto n = circuits::make_fig9();
  const auto res = design_ka85(n);
  EXPECT_TRUE(res.report.ok);
  const auto cost = evaluate_design(n, res.bilbo);
  EXPECT_EQ(cost.bilbo_registers, 10u);
  EXPECT_EQ(cost.bilbo_ffs, 52);
  EXPECT_EQ(cost.kernels, 2u);
}

TEST(Fig9, BibsIsASubsetOfKa85Here) {
  const auto n = circuits::make_fig9();
  const auto bibs = design_bibs(n).bilbo;
  const auto ka = design_ka85(n).bilbo;
  for (rtl::ConnId e : bibs) EXPECT_TRUE(ka.count(e));
}

TEST(Theorem3, Ka85DesignsAreAlwaysBalancedBistable) {
  // Theorem 3: every KA85 design is balanced BISTable. Check across the zoo.
  for (int i = 0; i < 5; ++i) {
    rtl::Netlist n;
    switch (i) {
      case 0: n = circuits::make_fig2(); break;
      case 1: n = circuits::make_fig9(); break;
      case 2: n = circuits::make_c5a2m(); break;
      case 3: n = circuits::make_c3a2m(); break;
      default: n = circuits::make_c4a4m(); break;
    }
    const auto res = design_ka85(n);
    EXPECT_TRUE(res.report.ok) << "circuit " << n.name();
  }
}

// ------------------------------------------------------------ Table 2 rows

struct Table2Row {
  const char* circuit;
  int bibs_kernels, ka_kernels;
  int bibs_sessions, ka_sessions;
  int bibs_bilbos, ka_bilbos;
  int bibs_delay, ka_delay;
};

// Prints a row as its circuit, which names the ctest case
// (Paper/Table2Structure.MatchesPaper/c5a2m). gtest's default printer
// dumps the row's raw bytes, pointer included, so the names changed on
// every build.
void PrintTo(const Table2Row& row, std::ostream* os) { *os << row.circuit; }

class Table2Structure : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Structure, MatchesPaper) {
  const Table2Row& row = GetParam();
  rtl::Netlist n;
  if (std::string(row.circuit) == "c5a2m") n = circuits::make_c5a2m();
  else if (std::string(row.circuit) == "c3a2m") n = circuits::make_c3a2m();
  else n = circuits::make_c4a4m();

  const auto bibs = design_bibs(n);
  const auto bibs_cost = evaluate_design(n, bibs.bilbo);
  EXPECT_EQ(static_cast<int>(bibs_cost.kernels), row.bibs_kernels);
  EXPECT_EQ(bibs_cost.sessions, row.bibs_sessions);
  EXPECT_EQ(static_cast<int>(bibs_cost.bilbo_registers), row.bibs_bilbos);
  EXPECT_EQ(bibs_cost.max_delay, row.bibs_delay);

  const auto ka = design_ka85(n);
  const auto ka_cost = evaluate_design(n, ka.bilbo);
  EXPECT_EQ(static_cast<int>(ka_cost.kernels), row.ka_kernels);
  EXPECT_EQ(ka_cost.sessions, row.ka_sessions);
  EXPECT_EQ(static_cast<int>(ka_cost.bilbo_registers), row.ka_bilbos);
  EXPECT_EQ(ka_cost.max_delay, row.ka_delay);
}

// Paper values (Table 2 rows 1-4). Note: the paper lists 7 kernels for
// c4a4m/[3]; with shared pipeline registers fanning out to two multipliers,
// component-based extraction yields 6 ({M1,M4} and {M2,M3} merge). See
// EXPERIMENTS.md.
INSTANTIATE_TEST_SUITE_P(
    Paper, Table2Structure,
    ::testing::Values(Table2Row{"c5a2m", 1, 7, 1, 2, 9, 15, 2, 4},
                      Table2Row{"c3a2m", 1, 5, 1, 2, 7, 15, 2, 6},
                      Table2Row{"c4a4m", 1, 6, 1, 2, 10, 20, 2, 4}));

// ------------------------------------------------------------- scheduling

TEST(Schedule, IndependentKernelsShareASession) {
  const auto n = circuits::make_c5a2m();
  const auto ka = design_ka85(n);
  std::vector<Kernel> kernels;
  for (const Kernel& k : ka.report.kernels)
    if (!k.trivial) kernels.push_back(k);
  const Schedule s = schedule_sessions(n, kernels);
  EXPECT_EQ(s.sessions, 2);
  // Adders A1..A4 never share a session with the multiplier they feed.
  // Test time: all kernels 100 patterns each -> 200 total.
  std::vector<std::int64_t> pat(kernels.size(), 100);
  EXPECT_EQ(schedule_test_time(s, pat), 200);
}

TEST(Schedule, SingleKernelSingleSession) {
  const auto n = circuits::make_c5a2m();
  const auto res = design_bibs(n);
  std::vector<Kernel> kernels;
  for (const Kernel& k : res.report.kernels)
    if (!k.trivial) kernels.push_back(k);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(schedule_sessions(n, kernels).sessions, 1);
}

// -------------------------------------------------------- kernel structure

TEST(KernelStructure, C5a2mSingleKernel) {
  const auto n = circuits::make_c5a2m();
  const auto res = design_bibs(n);
  std::vector<Kernel> kernels;
  for (const Kernel& k : res.report.kernels)
    if (!k.trivial) kernels.push_back(k);
  ASSERT_EQ(kernels.size(), 1u);
  const auto s = kernel_structure(n, res.bilbo, kernels[0]);
  EXPECT_EQ(s.registers.size(), 8u);  // the eight PI registers
  ASSERT_EQ(s.cones.size(), 1u);
  EXPECT_EQ(s.cones[0].deps.size(), 8u);
  // Every input is 2 internal register stages from the cone block.
  for (const auto& dep : s.cones[0].deps) EXPECT_EQ(dep.d, 2);
  EXPECT_EQ(s.total_width(), 64);
  EXPECT_EQ(kernel_depth(n, res.bilbo, kernels[0]), 2);
}

TEST(KernelStructure, C3a2mDelayChainsAlignDepths) {
  const auto n = circuits::make_c3a2m();
  const auto res = design_bibs(n);
  std::vector<Kernel> kernels;
  for (const Kernel& k : res.report.kernels)
    if (!k.trivial) kernels.push_back(k);
  ASSERT_EQ(kernels.size(), 1u);
  const auto s = kernel_structure(n, res.bilbo, kernels[0]);
  // All six operands arrive with equal sequential length (4): that is what
  // the MABAL alignment registers are for, and why the TPG needs no extra
  // flip-flops here.
  for (const auto& dep : s.cones[0].deps) EXPECT_EQ(dep.d, 4);
}

TEST(KernelStructure, Fig12aMatchesExample2) {
  const auto n = circuits::make_fig12a();
  const auto res = design_bibs(n);
  std::vector<Kernel> kernels;
  for (const Kernel& k : res.report.kernels)
    if (!k.trivial) kernels.push_back(k);
  ASSERT_EQ(kernels.size(), 1u);
  const auto s = kernel_structure(n, res.bilbo, kernels[0]);
  ASSERT_EQ(s.cones.size(), 1u);
  std::vector<int> depths;
  for (const auto& dep : s.cones[0].deps) depths.push_back(dep.d);
  EXPECT_EQ(depths, (std::vector<int>{2, 1, 0}));
}

TEST(KernelStructure, Fig4Kernel2IsMultiDepth) {
  const auto n = circuits::make_fig4();
  const auto b = by_names(n, circuits::fig4_example_bilbos());
  const auto rep = check_bibs_testable(n, b);
  for (const Kernel& k : rep.kernels) {
    if (k.trivial || k.input_regs.size() != 4) continue;
    const auto s = kernel_structure(n, b, k);
    ASSERT_EQ(s.cones.size(), 1u);
    std::vector<int> depths;
    for (const auto& dep : s.cones[0].deps) depths.push_back(dep.d);
    std::sort(depths.begin(), depths.end());
    EXPECT_EQ(depths, (std::vector<int>{0, 0, 1, 1}));
  }
}

// ---------------------------------------------------------------- designer

TEST(Designer, BoundaryRegistersRequired) {
  const auto n = circuits::make_fig1();  // PI drives F by wire
  EXPECT_THROW(design_bibs(n), DesignError);
}

TEST(Designer, Fig1NeedsAnInsertedRegisterInTheUrfs) {
  // Theorem 2: the URFS needs two BILBO edges, but fig1's URFS contains only
  // one register edge (the delayed branch). Exactly as in the
  // one-register-cycle case, the circuit cannot be made balanced BISTable
  // without inserting a register (or using a CBILBO): design_bibs reports
  // that even converting everything fails.
  auto m = circuits::make_fig1();
  ensure_boundary_registers(m);
  EXPECT_THROW(design_bibs(m), DesignError);

  // Insert a transparent register on the direct F -> C wire (the Figure
  // 10(b) approach): both branches now have sequential length 1, the URFS
  // disappears, and boundary-only conversion suffices — no internal BILBO
  // at all.
  rtl::ConnId direct_wire = -1;
  for (const auto& c : m.connections())
    if (!c.is_register() && m.block(c.from).name == "F" &&
        m.block(c.to).name == "C")
      direct_wire = c.id;
  ASSERT_NE(direct_wire, -1);
  m.insert_register_on_wire(direct_wire, "Rw");
  EXPECT_TRUE(graph::check_balanced(m).balanced);
  const auto res = design_bibs(m);
  EXPECT_TRUE(res.report.ok);
  EXPECT_EQ(res.bilbo.size(), 2u);  // boundary registers only
  EXPECT_FALSE(res.bilbo.count(m.find_register("R")));
}

TEST(Designer, CyclesNeedingCbilbo) {
  // A cycle with a single register edge cannot be made balanced BISTable
  // without inserting hardware.
  rtl::Netlist n;
  const auto pi = n.add_input("x", 4);
  const auto c1 = n.add_comb("C1", "xor", 4);
  const auto c2 = n.add_comb("C2", "not", 4);
  const auto po = n.add_output("y", 4);
  n.connect_reg(pi, c1, "R1", 4);
  n.connect_wire(c1, c2, 4);
  n.connect_reg(c2, c1, "RF", 4);  // single-register cycle
  n.connect_reg(c1, po, "RO", 4);
  n.validate();
  const auto cycles = cycles_needing_cbilbo(n);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_THROW(design_bibs(n), DesignError);
}

TEST(Designer, GreedyMatchesExactOnSmallCircuits) {
  for (int i = 0; i < 3; ++i) {
    rtl::Netlist n = i == 0   ? circuits::make_fig4()
                     : i == 1 ? circuits::make_fig9()
                              : circuits::make_fir_datapath(4);
    BibsOptions exact, greedy;
    greedy.exact_search_limit = 0;  // force the greedy path
    const auto re = design_bibs(n, exact);
    const auto rg = design_bibs(n, greedy);
    EXPECT_TRUE(rg.report.ok);
    // Greedy may be suboptimal but never invalid, and not absurdly larger.
    EXPECT_LE(rg.bilbo.size(), re.bilbo.size() + 2);
    EXPECT_GE(rg.bilbo.size(), re.bilbo.size());
  }
}

TEST(Designer, FirDatapathIsBalancedByConstruction) {
  for (int taps : {2, 3, 4, 6, 8}) {
    const auto n = circuits::make_fir_datapath(taps);
    const auto res = design_bibs(n);
    EXPECT_TRUE(res.report.ok);
    // Boundary only: x, k1..kt, y.
    EXPECT_EQ(res.bilbo.size(), static_cast<std::size_t>(taps) + 2) << taps;
    EXPECT_EQ(res.report.nontrivial_kernel_count(), 1u);
  }
}

TEST(Report, EvaluateRejectsBrokenDesigns) {
  const auto n = circuits::make_fig4();
  EXPECT_THROW(evaluate_design(n, by_names(n, {"R1", "R6"})), DesignError);
}

TEST(Report, AreaOverheadScalesWithFfCount) {
  const auto n = circuits::make_c5a2m();
  const auto bibs = evaluate_design(n, design_bibs(n).bilbo);
  const auto ka = evaluate_design(n, design_ka85(n).bilbo);
  EXPECT_LT(bibs.area_overhead_ge, ka.area_overhead_ge);
  EXPECT_EQ(bibs.bilbo_ffs, 72);   // 9 x 8
  EXPECT_EQ(ka.bilbo_ffs, 120);    // 15 x 8
}

}  // namespace
}  // namespace bibs::core
