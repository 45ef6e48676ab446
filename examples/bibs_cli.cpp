// bibs_cli: the BITS-style command-line flow — read a circuit file, make it
// BIBS-testable, and print the analysis, costs and the full test plan.
//
//   bibs_cli <file> [--tdm bibs|ka85|scan] [--cap <cycles>]
//
// A malformed or unknown argument exits 2 through the usage line.
//
// The file format is chosen by extension: .edif / .sexp (S-expression form),
// anything else the line format. Without arguments it runs on a built-in
// sample (the c3a2m filter data path).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "circuits/datapaths.hpp"
#include "common/parse.hpp"
#include "core/designer.hpp"
#include "core/report.hpp"
#include "gate/synth.hpp"
#include "obs/obs.hpp"
#include "rtl/edif.hpp"
#include "sim/testplan.hpp"

namespace {

int usage() {
  std::cerr << "usage: bibs_cli [file] [--tdm bibs|ka85|scan] [--cap CYCLES]\n";
  return 2;
}

int run(int argc, char** argv) {
  using namespace bibs;
  std::string path;
  std::string tdm = "bibs";
  std::uint64_t cap = 8192;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tdm" && has_value) {
      tdm = argv[++i];
      if (tdm != "bibs" && tdm != "ka85" && tdm != "scan") {
        std::cerr << "invalid value '" << tdm << "' for --tdm\n";
        return usage();
      }
    } else if (arg == "--cap" && has_value) {
      if (!parse_number<std::uint64_t>(
              argv[++i], 1, std::numeric_limits<std::uint64_t>::max(), cap)) {
        std::cerr << "invalid value '" << argv[i] << "' for --cap\n";
        return usage();
      }
    } else if (path.empty() && !arg.starts_with("-")) {
      path = arg;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage();
    }
  }

  rtl::Netlist n;
  try {
    obs::Span span("cli.parse");
    if (path.empty()) {
      n = circuits::make_c3a2m();
      std::cout << "(no input file given; using the built-in c3a2m)\n\n";
    } else {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "cannot open '" << path << "'\n";
        return 1;
      }
      std::stringstream ss;
      ss << in.rdbuf();
      const bool sexp = path.ends_with(".edif") || path.ends_with(".sexp");
      n = sexp ? rtl::parse_edif(ss.str()) : rtl::parse_netlist(ss.str());
    }
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  std::cout << "circuit '" << n.name() << "': " << n.block_count()
            << " blocks, " << n.register_edges().size() << " registers, "
            << n.total_register_bits() << " flip-flops\n";

  try {
    if (tdm == "scan") {
      const auto scan = core::design_partial_scan(n);
      std::cout << "partial scan converts " << scan.size() << " register(s):";
      for (auto e : scan) std::cout << ' ' << n.connection(e).reg->name;
      std::cout << "\n";
      return 0;
    }
    const core::DesignResult design = [&] {
      obs::Span span("cli.design");
      return tdm == "ka85" ? core::design_ka85(n) : core::design_bibs(n);
    }();
    std::cout << "TDM '" << tdm
              << "': " << core::to_string(core::evaluate_design(n, design.bilbo))
              << "\n\n";
    const gate::Elaboration elab = gate::elaborate(n);
    std::cout << "gate-level: " << elab.netlist.gate_count() << " gates, "
              << elab.netlist.dffs().size() << " flip-flops\n\n";
    obs::Span plan_span("cli.test_plan");
    const auto plan = sim::make_test_plan(n, elab, design, cap);
    std::cout << plan.to_string(n) << "\n" << plan.controller_rtl();
  } catch (const Error& e) {
    std::cerr << "flow failed: " << e.what() << "\n";
    return 1;
  }

  // Machine-readable run report (and trace flush) for scripted consumers;
  // both also happen automatically at exit, this just orders them before
  // stdout closes and surfaces the destination.
  if (obs::write_report_from_env())
    std::cerr << "wrote obs report to " << std::getenv("BIBS_METRICS") << "\n";
  if (obs::TraceWriter::instance().enabled())
    std::cerr << "tracing to " << obs::TraceWriter::instance().path()
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The phases above catch and annotate their own errors; this is the last
  // line of defense so no bibs::Error ever escapes as std::terminate.
  try {
    return run(argc, argv);
  } catch (const bibs::Error& e) {
    std::cerr << "bibs_cli: " << e.what() << "\n";
    return 1;
  }
}
