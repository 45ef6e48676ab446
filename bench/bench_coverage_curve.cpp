// Coverage-vs-patterns series (the figure the paper's Table 2 rows 5-8
// sample at two points): fault coverage of the BIBS whole-data-path kernel
// and of the [3] per-block kernels as the random pattern count grows.

#include <iostream>
#include <limits>
#include <string>

#include "circuits/datapaths.hpp"
#include "common/parse.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"
#include "core/designer.hpp"
#include "fault/simulator.hpp"
#include "gate/synth.hpp"

namespace {

using namespace bibs;

// --threads N (or BIBS_THREADS) parallelizes the per-fault propagation loop;
// the curves are bit-identical for any thread count.
int g_threads = 0;

fault::CoverageCurve bibs_curve(const rtl::Netlist& n) {
  const auto elab = gate::elaborate(n);
  std::vector<rtl::ConnId> in_regs, out_regs;
  for (const auto& c : n.connections()) {
    if (!c.is_register()) continue;
    if (n.block(c.from).kind == rtl::BlockKind::kInput) in_regs.push_back(c.id);
    if (n.block(c.to).kind == rtl::BlockKind::kOutput) out_regs.push_back(c.id);
  }
  const auto comb = gate::combinational_kernel(elab, n, in_regs, out_regs);
  fault::FaultSimulator sim(comb, fault::FaultList::collapsed(comb));
  sim.set_threads(g_threads);
  Xoshiro256 rng(1994);
  return sim.run_random(rng, 1 << 20, 60000);
}

std::vector<fault::CoverageCurve> ka_curves(const rtl::Netlist& n) {
  const auto elab = gate::elaborate(n);
  const auto design = core::design_ka85(n);
  std::vector<fault::CoverageCurve> out;
  std::uint64_t seed = 1994;
  for (const core::Kernel& k : design.report.kernels) {
    if (k.trivial) continue;
    const auto comb =
        gate::combinational_kernel(elab, n, k.input_regs, k.output_regs);
    fault::FaultSimulator sim(comb, fault::FaultList::collapsed(comb));
    sim.set_threads(g_threads);
    Xoshiro256 rng(seed++);
    out.push_back(sim.run_random(rng, 1 << 20, 60000));
  }
  return out;
}

double aggregate_after(const std::vector<fault::CoverageCurve>& curves,
                       std::int64_t patterns) {
  std::size_t detected = 0, total = 0;
  for (const auto& c : curves) {
    total += c.total_faults();
    for (auto d : c.detected_at)
      if (d != fault::CoverageCurve::kUndetected && d < patterns) ++detected;
  }
  return total ? 100.0 * static_cast<double>(detected) /
                     static_cast<double>(total)
               : 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc &&
        parse_number(std::string(argv[i + 1]), 0,
                     std::numeric_limits<int>::max(), g_threads)) {
      ++i;
      continue;
    }
    std::cerr << "usage: bench_coverage_curve [--threads N]\n";
    return arg == "--help" || arg == "-h" ? 0 : 64;
  }

  for (const char* which : {"c5a2m", "c4a4m"}) {
    rtl::Netlist n;
    if (std::string(which) == "c5a2m") n = circuits::make_c5a2m();
    else n = circuits::make_c4a4m();

    const auto bibs = bibs_curve(n);
    const auto ka = ka_curves(n);

    Table t(std::string(which) +
            ": fault coverage (%) vs random patterns applied per kernel");
    t.header({"patterns", "BIBS (one kernel)", "[3] (per-block kernels)"});
    for (std::int64_t p : {8, 16, 32, 64, 128, 256, 512, 1024}) {
      t.row({Table::num(p), Table::num(100.0 * bibs.coverage_after(p), 2),
             Table::num(aggregate_after(ka, p), 2)});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout <<
      "The small [3] kernels ramp slightly faster at the start (direct\n"
      "controllability) while the BIBS kernel catches up within tens of\n"
      "patterns — the practical content of the paper's remark that adequate\n"
      "pseudo-random patterns give good coverage for balanced kernels.\n";
  return 0;
}
