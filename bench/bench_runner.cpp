// Aggregating benchmark driver behind scripts/run_benches.sh. Two jobs:
//
//  1. Thread-scaling measurements run in-process: the PPSFP fault simulator
//     on the c5a2m whole-data-path kernel (the engine behind Table 2), the
//     batched BIST session, and the CSTP ring, each at every thread count in
//     --threads-list, all on the active lane backend (recorded per row). Each configuration repeats --repeat times and
//     keeps the minimum wall time; results are checked bit-identical to the
//     1-thread reference before any speedup is reported.
//
//  2. Optionally (--suite-dir) every sibling bench_* binary is executed once
//     with BIBS_METRICS pointed at BENCH_<name>.json, so the whole table
//     suite leaves machine-readable run reports behind.
//
// Everything lands in one JSON document (--out, default BENCH_parallel.json);
// docs/performance.md describes the schema.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "circuits/datapaths.hpp"
#include "common/parse.hpp"
#include "common/prng.hpp"
#include "core/designer.hpp"
#include "fault/simulator.hpp"
#include "gate/lanes.hpp"
#include "gate/synth.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "par/pool.hpp"
#include "sim/cstp.hpp"
#include "sim/lane_engine.hpp"
#include "sim/session.hpp"

namespace {

using namespace bibs;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::vector<int> threads_list{1, 2, 4, 8};
  int repeat = 3;
  std::string out = "BENCH_parallel.json";
  std::string suite_dir;     // empty = skip the suite pass
  std::string metrics_dir = ".";
  std::int64_t patterns = 4096;  // fault-sim patterns per measurement
  std::int64_t cycles = 1024;    // session / cstp emulated cycles
};

/// Comma-separated positive thread counts; empty on any malformed item.
std::vector<int> parse_thread_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string item =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    int threads = 0;
    if (!parse_number(item, 1, std::numeric_limits<int>::max(), threads))
      return {};
    out.push_back(threads);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// One thread-scaling benchmark: run() executes the workload at the given
// thread count and returns {work done, fingerprint of the full result}.
struct ParallelBench {
  std::string name;
  std::string work_unit;
  // The lane backend the workload runs on, as reported in its rows.
  std::string lane_backend;
  std::function<std::pair<std::int64_t, std::string>(int threads)> run;
};

// The c5a2m BIBS kernel: every fixture below derives from the same netlist
// the acceptance criterion names.
struct Fixture {
  rtl::Netlist n = circuits::make_c5a2m();
  gate::Elaboration elab = gate::elaborate(n);
  core::DesignResult design = core::design_bibs(n);
  gate::Netlist kernel;
  const core::Kernel* first_kernel = nullptr;

  Fixture() {
    std::vector<rtl::ConnId> in_regs, out_regs;
    for (const auto& c : n.connections()) {
      if (!c.is_register()) continue;
      if (n.block(c.from).kind == rtl::BlockKind::kInput)
        in_regs.push_back(c.id);
      if (n.block(c.to).kind == rtl::BlockKind::kOutput)
        out_regs.push_back(c.id);
    }
    kernel = gate::combinational_kernel(elab, n, in_regs, out_regs);
    for (const core::Kernel& k : design.report.kernels)
      if (!k.trivial && !first_kernel) first_kernel = &k;
  }
};

std::string fingerprint(const std::vector<std::int64_t>& v) {
  // FNV-1a over the detection indices: cheap, order-sensitive, and any
  // single divergent element changes it.
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t x : v) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ull;
  }
  return std::to_string(h);
}

std::vector<ParallelBench> make_benches(const Fixture& fx, const Options& o) {
  std::vector<ParallelBench> benches;
  // Fault simulation always runs 64-pattern scalar blocks; the sessions
  // batch faults on the process-wide backend (no bench pins a width).
  const std::string batch_backend = sim::fault_batching(0).backend->name;

  benches.push_back(
      {"coverage_curve", "patterns", gate::scalar_lane_backend().name,
       [&fx, &o](int threads) {
         fault::FaultSimulator sim(fx.kernel,
                                   fault::FaultList::collapsed(fx.kernel));
         sim.set_threads(threads);
         Xoshiro256 rng(1994);
         const fault::CoverageCurve c = sim.run_random(
             rng, o.patterns, std::numeric_limits<std::int64_t>::max());
         return std::pair<std::int64_t, std::string>(
             c.patterns_run, fingerprint(c.detected_at));
       }});

  if (fx.first_kernel) {
    benches.push_back(
        {"session", "cycles", batch_backend, [&fx, &o](int threads) {
           sim::BistSession session(fx.n, fx.elab, fx.design.bilbo,
                                    *fx.first_kernel);
           session.set_threads(threads);
           const fault::FaultList faults = session.kernel_faults();
           const sim::SessionReport rep = session.run(faults, o.cycles);
           const std::int64_t batches = static_cast<std::int64_t>(
               session.batching().batches(faults.size()));
           std::vector<std::int64_t> fp;
           for (std::uint64_t s : rep.golden_signatures)
             fp.push_back(static_cast<std::int64_t>(s));
           fp.push_back(static_cast<std::int64_t>(rep.detected_at_outputs));
           fp.push_back(static_cast<std::int64_t>(rep.detected_by_signature));
           return std::pair<std::int64_t, std::string>(o.cycles * batches,
                                                       fingerprint(fp));
         }});
  }

  benches.push_back(
      {"cstp", "cycles", batch_backend, [&fx, &o](int threads) {
         sim::CstpSession cstp(fx.elab.netlist);
         cstp.set_threads(threads);
         const fault::FaultList faults =
             fault::FaultList::collapsed(fx.elab.netlist);
         const sim::CstpReport rep = cstp.run(faults, o.cycles);
         const std::int64_t batches = static_cast<std::int64_t>(
             cstp.batching().batches(faults.size()));
         return std::pair<std::int64_t, std::string>(
             o.cycles * batches,
             fingerprint({static_cast<std::int64_t>(rep.detected_ideal),
                          static_cast<std::int64_t>(rep.detected_by_signature)}));
       }});

  return benches;
}

obs::Json run_parallel_section(const Options& o) {
  const Fixture fx;
  obs::Json section = obs::Json::array();

  for (const ParallelBench& bench : make_benches(fx, o)) {
    double wall_1t = 0.0;
    std::string ref_fp;
    for (int threads : o.threads_list) {
      double best = -1.0;
      std::int64_t work = 0;
      std::string fp;
      for (int r = 0; r < o.repeat; ++r) {
        const Clock::time_point t0 = Clock::now();
        const auto [w, f] = bench.run(threads);
        const double wall = ms_since(t0);
        if (best < 0 || wall < best) best = wall;
        work = w;
        fp = f;
      }
      if (threads == o.threads_list.front() && ref_fp.empty()) {
        // The first (lowest) thread count is the identity reference.
        ref_fp = fp;
        wall_1t = best;
      }

      obs::Json row = obs::Json::object();
      row["bench"] = bench.name;
      row["threads"] = threads;
      row["wall_ms"] = best;
      row["work"] = work;
      row["work_unit"] = bench.work_unit;
      row["lane_backend"] = bench.lane_backend;
      row["work_per_s"] =
          best > 0 ? static_cast<double>(work) / (best / 1000.0) : 0.0;
      row["speedup_vs_1t"] = best > 0 ? wall_1t / best : 0.0;
      row["identical_to_1t"] = fp == ref_fp;
      section.push_back(std::move(row));

      std::cerr << "  " << bench.name << " threads=" << threads
                << " wall_ms=" << best << " (" << bench.work_unit << "="
                << work << ")\n";
      if (fp != ref_fp) {
        std::cerr << "FATAL: " << bench.name << " at " << threads
                  << " threads diverged from the 1-thread result\n";
        std::exit(2);
      }
    }
  }
  return section;
}

obs::Json run_suite_section(const Options& o) {
  obs::Json section = obs::Json::array();
  std::vector<fs::path> binaries;
  for (const fs::directory_entry& e : fs::directory_iterator(o.suite_dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("bench_", 0) != 0) continue;
    if (name == "bench_runner") continue;     // that's us
    if (name == "bench_throughput") continue; // google-benchmark, minutes-long
    if (name == "bench_kernel") continue;     // run_benches.sh invokes it
                                              // explicitly (own JSON schema)
    if (!fs::is_regular_file(e.path())) continue;
    binaries.push_back(e.path());
  }
  std::sort(binaries.begin(), binaries.end());

  for (const fs::path& bin : binaries) {
    const std::string name = bin.filename().string();
    const std::string metrics =
        (fs::path(o.metrics_dir) / ("BENCH_" + name + ".json")).string();
    const std::string cmd = "BIBS_METRICS='" + metrics + "' '" + bin.string() +
                            "' > /dev/null 2>&1";
    const Clock::time_point t0 = Clock::now();
    const int rc = std::system(cmd.c_str());
    const double wall = ms_since(t0);

    obs::Json row = obs::Json::object();
    row["bench"] = name;
    row["wall_ms"] = wall;
    row["exit"] = rc;
    row["metrics"] = metrics;
    section.push_back(std::move(row));
    std::cerr << "  " << name << " wall_ms=" << wall << " exit=" << rc
              << "\n";
  }
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const auto usage = [](int code) {
    std::cerr << "usage: bench_runner [--threads-list 1,2,4,8] [--repeat N]"
                 " [--out FILE] [--suite-dir DIR] [--metrics-dir DIR]"
                 " [--patterns N] [--cycles N]\n";
    return code;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(usage(64));
      }
      return argv[++i];
    };
    // A malformed or non-positive count is a usage error, never a silent 0.
    const auto count = [&]<typename T>(T& out) {
      const std::string v = value();
      if (!parse_number<T>(v, 1, std::numeric_limits<T>::max(), out)) {
        std::cerr << "invalid value for " << arg << ": '" << v << "'\n";
        std::exit(usage(64));
      }
    };
    if (arg == "--threads-list") {
      const std::string v = value();
      o.threads_list = parse_thread_list(v);
      if (o.threads_list.empty()) {
        std::cerr << "invalid value for " << arg << ": '" << v << "'\n";
        return usage(64);
      }
    } else if (arg == "--repeat") count(o.repeat);
    else if (arg == "--out") o.out = value();
    else if (arg == "--suite-dir") o.suite_dir = value();
    else if (arg == "--metrics-dir") o.metrics_dir = value();
    else if (arg == "--patterns") count(o.patterns);
    else if (arg == "--cycles") count(o.cycles);
    else return usage(arg == "--help" || arg == "-h" ? 0 : 64);
  }

  obs::Json doc = obs::Json::object();
  doc["kind"] = "bibs.bench_report";
  doc["version"] = 1;
  obs::Json host = obs::Json::object();
  host["hardware_threads"] = par::hardware_threads();
  host["git"] = obs::Report::collect().git_describe;
  doc["host"] = std::move(host);

  std::cerr << "thread scaling (repeat=" << o.repeat << ", min wall kept):\n";
  doc["parallel"] = run_parallel_section(o);
  if (!o.suite_dir.empty()) {
    std::cerr << "bench suite (" << o.suite_dir << "):\n";
    doc["suite"] = run_suite_section(o);
  }

  std::ofstream out(o.out);
  if (!out) {
    std::cerr << "cannot write " << o.out << "\n";
    return 1;
  }
  out << doc.dump() << "\n";
  std::cerr << "wrote " << o.out << "\n";
  return 0;
}
