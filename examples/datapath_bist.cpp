// End-to-end BIST of the paper's c5a2m digital-filter data path:
//
//   1. build the RTL data path and lower it to gates,
//   2. apply the BIBS TDM (PI/PO registers become BILBOs; the whole data
//      path is one balanced BISTable kernel),
//   3. emulate the silicon test session cycle by cycle: the MC_TPG LFSR
//      drives the input registers, MISRs compact the output register data,
//   4. report fault coverage (ideal observer vs signature) and the golden
//      signature a production tester would compare against.
//
// The full functionally exhaustive session would take 2^64 cycles; like any
// real BIST schedule we run a truncated pseudo-random session and measure
// the coverage it buys.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "circuits/datapaths.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/designer.hpp"
#include "core/report.hpp"
#include "gate/synth.hpp"
#include "obs/obs.hpp"
#include "rt/control.hpp"
#include "sim/session.hpp"
#include "tpg/synthesize.hpp"

namespace {

int usage() {
  std::cerr << "usage: datapath_bist [--threads N] [--deadline-ms N]\n";
  return 2;
}

int run(int argc, char** argv) {
  using namespace bibs;

  // --deadline-ms N bounds every simulated session by wall-clock time; a
  // session that runs out prints its (partial) coverage and the reason.
  // --threads N runs the session fault batches on N workers (results are
  // bit-identical for any count; 0/default resolves BIBS_THREADS). A
  // malformed value or an unknown argument exits 2 through the usage line.
  // One year: keeps now() + the deadline inside steady_clock's range.
  constexpr std::int64_t kMaxDeadlineMs = 365LL * 24 * 3600 * 1000;
  rt::RunControl ctl;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--deadline-ms" && has_value) {
      std::int64_t ms = 0;
      if (!parse_number<std::int64_t>(argv[++i], 0, kMaxDeadlineMs, ms)) {
        std::cerr << "invalid value '" << argv[i] << "' for " << arg << "\n";
        return usage();
      }
      ctl.deadline = rt::Deadline::in(std::chrono::milliseconds(ms));
    } else if (arg == "--threads" && has_value) {
      if (!parse_number<int>(argv[++i], 0, std::numeric_limits<int>::max(),
                             threads)) {
        std::cerr << "invalid value '" << argv[i] << "' for " << arg << "\n";
        return usage();
      }
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage();
    }
  }

  const rtl::Netlist n = circuits::make_c5a2m();
  std::cout << "c5a2m: o = (a+b)*(c+d) + (e+f)*(g+h), 8-bit operands\n";

  // gate::elaborate carries its own "gate.elaborate" span; this outer one
  // names the example's phase for the trace timeline.
  const gate::Elaboration elab = [&] {
    obs::Span span("elaborate");
    return gate::elaborate(n);
  }();
  std::cout << "elaborated to " << elab.netlist.gate_count()
            << " logic gates and " << elab.netlist.dffs().size()
            << " flip-flops\n\n";

  const core::DesignResult design = core::design_bibs(n);
  const core::DesignCost cost = core::evaluate_design(n, design.bilbo);
  std::cout << "BIBS design: " << core::to_string(cost) << "\n\n";

  for (const core::Kernel& k : design.report.kernels) {
    if (k.trivial) continue;
    sim::BistSession session = [&] {
      obs::Span span("tpg_synthesis");
      return sim::BistSession(n, elab, design.bilbo, k);
    }();
    session.set_threads(threads);
    session.set_progress(obs::progress_from_env());
    std::cout << "TPG: " << session.tpg().lfsr_stages << "-stage LFSR, "
              << session.tpg().physical_ffs() << " flip-flops, p(x) = "
              << session.tpg().poly.to_string() << "\n";
    const auto hw = tpg::synthesize_tpg(session.tpg());
    std::cout << "TPG hardware: " << hw.netlist.dffs().size()
              << " flip-flops, " << hw.feedback_xors()
              << " feedback XORs\n";

    obs::Span fault_sim_span("fault_sim");
    const fault::FaultList faults = session.kernel_faults();
    Table t("BIST session coverage vs length (collapsed stuck-at faults: " +
            std::to_string(faults.size()) + ")");
    t.header({"cycles", "detected @ outputs", "detected by signature",
              "aliased"});
    bool out_of_time = false;
    for (std::int64_t cycles : {256, 1024, 4096, 16384}) {
      const sim::SessionReport rep = session.run(faults, cycles, ctl);
      t.row({Table::num(static_cast<long long>(cycles)),
             Table::num(static_cast<long long>(rep.detected_at_outputs)),
             Table::num(static_cast<long long>(rep.detected_by_signature)),
             Table::num(static_cast<long long>(rep.aliased))});
      if (rep.status != rt::RunStatus::kFinished) {
        std::cout << "  (session stopped early: " << rt::to_string(rep.status)
                  << "; rows below reflect completed fault batches only)\n";
        out_of_time = true;
        break;
      }
    }
    t.print(std::cout);
    if (out_of_time) break;

    const sim::SessionReport rep = session.run(faults, 4096, ctl);
    std::cout << "\ngolden signatures after 4,096 cycles:";
    for (std::size_t i = 0; i < rep.golden_signatures.size(); ++i)
      std::cout << " 0x" << std::hex << rep.golden_signatures[i] << std::dec;
    std::cout << "\nsignature coverage at 4,096 cycles: "
              << 100.0 * static_cast<double>(rep.detected_by_signature) /
                     static_cast<double>(rep.total_faults)
              << "%\n";
  }

  if (obs::write_report_from_env())
    std::cerr << "wrote obs report to " << std::getenv("BIBS_METRICS") << "\n";
  if (obs::TraceWriter::instance().enabled())
    std::cerr << "tracing to " << obs::TraceWriter::instance().path()
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const bibs::Error& e) {
    std::cerr << "datapath_bist: " << e.what() << "\n";
    return 1;
  }
}
