// bibs_corpus: the corpus regression CLI. Sweeps the committed ISCAS-85
// .bench suite (data/iscas85/) and the paper's generated data paths through
// fault simulation under both fault models, BIST session emulation and the
// light bibs::check oracle subset, emitting one CI-diffable per-circuit
// table (CORPUS.json). Wall-clock timings go to a separate, never-diffed
// file. The table is bit-identical across thread counts and across
// interrupted-and-resumed runs (see src/corpus/corpus.hpp).
//
//   bibs_corpus [--tier1|--quick|--full] [--circuits a,b,c]
//               [--models stuck_at,transition] [--max-patterns N]
//               [--budgets n1,n2,...] [--seed S] [--threads T] [--lanes L]
//               [--data DIR] [--out PATH] [--timing PATH]
//               [--checkpoint PATH] [--diff GOLDEN] [--deadline-ms N]
//               [--unit-budget N] [--no-sessions] [--no-checks]
//
// Numeric flags must be whole decimal numbers in range; --lanes accepts
// 0 (widest supported backend), 64 (scalar64) or 512 (avx512) and sets the
// BIST session batch width only (fault simulation always runs 64-pattern
// blocks). --help / -h prints the usage line to stdout and exits 0.
//
// Exit status: 0 table written (and matching the golden when --diff was
// given); 1 a --diff mismatch or an oracle failure; 2 usage error;
// 3 the run was interrupted (deadline / unit budget) before completing.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "corpus/corpus.hpp"
#include "obs/obs.hpp"

namespace {

using namespace bibs;

struct Options {
  std::string subset = "quick";
  std::vector<std::string> circuits;  // empty = all of the subset
  corpus::SweepOptions sweep;
  std::string out_path = "CORPUS.json";
  std::string timing_path;
  std::string diff_path;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Prints the usage line to `os`; returns `code` (2 = usage error, 0 for an
/// explicit --help).
int usage(std::ostream& os = std::cerr, int code = 2) {
  os << "usage: bibs_corpus [--tier1|--quick|--full] [--circuits a,b,c]\n"
        "                   [--models stuck_at,transition]"
        " [--max-patterns N]\n"
        "                   [--budgets n1,n2,...] [--seed S] [--threads T]"
        " [--lanes L]\n"
        "                   [--data DIR] [--out PATH] [--timing PATH]\n"
        "                   [--checkpoint PATH] [--diff GOLDEN]"
        " [--deadline-ms N]\n"
        "                   [--unit-budget N] [--no-sessions]"
        " [--no-checks] [--help]\n"
        "--lanes sets the BIST session batch width only; fault simulation\n"
        "always runs 64-pattern blocks.\n";
  return code;
}

int bad_value(const std::string& flag, const std::string& value) {
  std::cerr << "invalid value '" << value << "' for " << flag << "\n";
  return usage();
}

int run(int argc, char** argv) {
  constexpr std::int64_t kMaxI64 = std::numeric_limits<std::int64_t>::max();
  // One year: keeps now() + the deadline inside steady_clock's range.
  constexpr std::int64_t kMaxDeadlineMs = 365LL * 24 * 3600 * 1000;
  Options opt;
  opt.sweep.data_dir = std::string(BIBS_SOURCE_DIR) + "/data";
  bool budgets_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tier1" || arg == "--quick" || arg == "--full") {
      opt.subset = arg.substr(2);
    } else if (arg == "--circuits" && has_value) {
      opt.circuits = split_csv(argv[++i]);
    } else if (arg == "--models" && has_value) {
      opt.sweep.models = split_csv(argv[++i]);
    } else if (arg == "--max-patterns" && has_value) {
      if (!parse_number<std::int64_t>(argv[++i], 1, kMaxI64,
                                      opt.sweep.max_patterns))
        return bad_value(arg, argv[i]);
    } else if (arg == "--budgets" && has_value) {
      opt.sweep.budgets.clear();
      for (const std::string& b : split_csv(argv[++i])) {
        std::int64_t n = 0;
        if (!parse_number<std::int64_t>(b, 1, kMaxI64, n))
          return bad_value(arg, argv[i]);
        opt.sweep.budgets.push_back(n);
      }
      budgets_set = true;
    } else if (arg == "--seed" && has_value) {
      if (!parse_number<std::uint64_t>(
              argv[++i], 0, std::numeric_limits<std::uint64_t>::max(),
              opt.sweep.seed))
        return bad_value(arg, argv[i]);
    } else if (arg == "--threads" && has_value) {
      if (!parse_number<int>(argv[++i], 0, std::numeric_limits<int>::max(),
                             opt.sweep.threads))
        return bad_value(arg, argv[i]);
    } else if (arg == "--lanes" && has_value) {
      int lanes = 0;
      if (!parse_number<int>(argv[++i], 0, 512, lanes) ||
          (lanes != 0 && lanes != 64 && lanes != 512))
        return bad_value(arg, argv[i]);
      opt.sweep.lanes = lanes;
    } else if (arg == "--data" && has_value) {
      opt.sweep.data_dir = argv[++i];
    } else if (arg == "--out" && has_value) {
      opt.out_path = argv[++i];
    } else if (arg == "--timing" && has_value) {
      opt.timing_path = argv[++i];
    } else if (arg == "--checkpoint" && has_value) {
      opt.sweep.checkpoint_path = argv[++i];
    } else if (arg == "--diff" && has_value) {
      opt.diff_path = argv[++i];
    } else if (arg == "--deadline-ms" && has_value) {
      std::int64_t ms = 0;
      if (!parse_number<std::int64_t>(argv[++i], 0, kMaxDeadlineMs, ms))
        return bad_value(arg, argv[i]);
      opt.sweep.ctl.deadline =
          rt::Deadline::in(std::chrono::milliseconds(ms));
    } else if (arg == "--unit-budget" && has_value) {
      if (!parse_number<std::int64_t>(argv[++i], 0, kMaxI64,
                                      opt.sweep.ctl.budget))
        return bad_value(arg, argv[i]);
    } else if (arg == "--no-sessions") {
      opt.sweep.run_sessions = false;
    } else if (arg == "--no-checks") {
      opt.sweep.run_checks = false;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage();
    }
  }

  // Subsets with a smaller pattern budget keep the tier-1 gate fast; an
  // explicit --max-patterns / --budgets always wins.
  bool patterns_set = opt.sweep.max_patterns != 4096;
  if (opt.subset == "tier1" && !patterns_set) opt.sweep.max_patterns = 1024;
  if (opt.subset == "full" && !patterns_set) opt.sweep.max_patterns = 16384;
  if (!budgets_set) {
    opt.sweep.budgets = {64, 256, 1024};
    if (opt.sweep.max_patterns >= 4096) opt.sweep.budgets.push_back(4096);
    if (opt.sweep.max_patterns >= 16384) opt.sweep.budgets.push_back(16384);
  }

  std::vector<corpus::CircuitSpec> specs = corpus::standard_corpus(opt.subset);
  if (!opt.circuits.empty()) {
    std::vector<corpus::CircuitSpec> kept;
    for (const corpus::CircuitSpec& s : specs)
      for (const std::string& want : opt.circuits)
        if (s.name == want) {
          kept.push_back(s);
          break;
        }
    if (kept.empty()) {
      std::cerr << "--circuits matched nothing in subset '" << opt.subset
                << "'\n";
      return 2;
    }
    specs = std::move(kept);
  }

  const corpus::CorpusResult result = corpus::run_corpus(specs, opt.sweep);

  if (result.status != rt::RunStatus::kFinished) {
    std::cerr << "interrupted (" << rt::to_string(result.status) << ") after "
              << result.units_done << "/" << specs.size() << " circuits";
    if (!opt.sweep.checkpoint_path.empty())
      std::cerr << "; checkpoint saved, rerun to resume";
    std::cerr << "\n";
    return 3;
  }

  const std::string table = result.table.dump();
  if (opt.out_path == "-") {
    std::cout << table << "\n";
  } else {
    std::ofstream out(opt.out_path);
    if (!out.good()) {
      std::cerr << "cannot write '" << opt.out_path << "'\n";
      return 2;
    }
    out << table << "\n";
  }
  if (!opt.timing_path.empty()) {
    std::ofstream out(opt.timing_path);
    if (!out.good()) {
      std::cerr << "cannot write '" << opt.timing_path << "'\n";
      return 2;
    }
    out << result.timing.dump() << "\n";
  }

  std::cout << result.units_done << " circuits, "
            << opt.sweep.models.size() << " fault models, "
            << result.failed_checks << " oracle failures\n";

  int status = 0;
  if (result.failed_checks > 0) {
    std::cerr << "FAIL: " << result.failed_checks
              << " bibs::check oracle failures (see the per-circuit"
                 " \"checks\" fields)\n";
    status = 1;
  }
  if (!opt.diff_path.empty()) {
    std::ifstream in(opt.diff_path);
    if (!in.good()) {
      std::cerr << "cannot read golden '" << opt.diff_path << "'\n";
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const obs::Json golden = obs::Json::parse(ss.str());
    const std::vector<std::string> diffs =
        corpus::diff_tables(golden, result.table);
    if (diffs.empty()) {
      std::cout << "golden match: " << opt.diff_path << "\n";
    } else {
      std::cerr << "FAIL: table diverges from golden " << opt.diff_path
                << ":\n";
      for (const std::string& d : diffs) std::cerr << "  " << d << "\n";
      status = 1;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 2;
  }
}
