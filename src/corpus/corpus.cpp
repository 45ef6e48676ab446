#include "corpus/corpus.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "check/check.hpp"
#include "circuits/datapaths.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/designer.hpp"
#include "core/kernels.hpp"
#include "fault/fault.hpp"
#include "fault/simulator.hpp"
#include "gate/bench_format.hpp"
#include "gate/lanes.hpp"
#include "gate/synth.hpp"
#include "obs/obs.hpp"
#include "sim/session.hpp"

namespace bibs::corpus {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw ParseError("cannot read '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Coverage as a fixed 4-decimal percentage string: doubles never reach the
/// serializer, so the table is byte-stable across compilers and libcs.
std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", fraction * 100.0);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Per-unit circuit material: the combinational netlist every fault-sim run
/// uses, plus (data paths only) the session ingredients.
struct UnitCircuit {
  gate::Netlist comb;
  // Data-path kinds only; bench files have no RTL side.
  bool has_rtl = false;
  rtl::Netlist n;
  gate::Elaboration elab;
  core::DesignResult design;
  std::size_t kernel_index = 0;
};

rtl::Netlist make_rtl(const CircuitSpec& spec) {
  if (spec.kind == CircuitKind::kFirDatapath)
    return circuits::make_fir_datapath(spec.taps, spec.width);
  if (spec.file == "c5a2m") return circuits::make_c5a2m(spec.width);
  if (spec.file == "c3a2m") return circuits::make_c3a2m(spec.width);
  if (spec.file == "c4a4m") return circuits::make_c4a4m(spec.width);
  throw DesignError("unknown data-path generator '" + spec.file + "'");
}

UnitCircuit load_circuit(const CircuitSpec& spec, const SweepOptions& opt) {
  UnitCircuit u;
  if (spec.kind == CircuitKind::kBenchFile) {
    u.comb = gate::parse_bench(read_file(opt.data_dir + "/" + spec.file));
    return u;
  }
  u.has_rtl = true;
  u.n = make_rtl(spec);
  u.elab = gate::elaborate(u.n);
  u.design = core::design_bibs(u.n);
  if (!u.design.report.ok)
    throw DesignError("data path '" + spec.name + "' is not BIBS-testable");
  bool found = false;
  for (std::size_t ki = 0; ki < u.design.report.kernels.size(); ++ki) {
    if (u.design.report.kernels[ki].trivial) continue;
    u.kernel_index = ki;
    found = true;
    break;
  }
  if (!found)
    throw DesignError("data path '" + spec.name + "' has no test kernel");
  const core::Kernel& k = u.design.report.kernels[u.kernel_index];
  u.comb = gate::combinational_kernel(u.elab, u.n, k.input_regs,
                                      k.output_regs);
  return u;
}

fault::FaultModel parse_model(const std::string& name) {
  return fault::fault_model_from_string(name);  // throws on unknown
}

/// token + deadline forwarded, unit budget NOT: inner work units are
/// patterns/cycles, the corpus budget counts circuits.
rt::RunControl inner_ctl(const rt::RunControl& ctl) {
  rt::RunControl c;
  c.token = ctl.token;
  c.deadline = ctl.deadline;
  return c;
}

/// One (circuit, model) fault-simulation row. Returns a null Json when the
/// run was interrupted (status is propagated through `status`).
obs::Json run_model(const UnitCircuit& u, fault::FaultModel model,
                    const SweepOptions& opt, rt::RunStatus& status) {
  fault::FaultList fl = model == fault::FaultModel::kStuckAt
                            ? fault::FaultList::collapsed(u.comb)
                            : fault::FaultList::transition(u.comb);
  const std::size_t n_faults = fl.size();
  const std::size_t n_full = fl.full_size();
  fault::FaultSimulator sim(u.comb, std::move(fl),
                            fault::EvalBackend::kCompiled, model);
  sim.set_threads(opt.threads);
  Xoshiro256 rng(opt.seed);
  const fault::CoverageCurve curve =
      sim.run_random(rng, opt.max_patterns,
                     std::numeric_limits<std::int64_t>::max(),
                     inner_ctl(opt.ctl));
  if (curve.status != rt::RunStatus::kFinished) {
    status = curve.status;
    return obs::Json();
  }
  obs::Json j = obs::Json::object();
  j["faults"] = obs::Json(static_cast<std::uint64_t>(n_faults));
  j["faults_full"] = obs::Json(static_cast<std::uint64_t>(n_full));
  j["patterns_run"] = obs::Json(curve.patterns_run);
  j["detected"] =
      obs::Json(static_cast<std::uint64_t>(curve.detected_count()));
  j["coverage_pct"] = obs::Json(pct(curve.coverage()));
  obs::Json at = obs::Json::object();
  for (const std::int64_t b : opt.budgets)
    at[std::to_string(b)] = obs::Json(pct(curve.coverage_after(b)));
  j["coverage_at"] = std::move(at);
  j["patterns_to_99_5_pct"] = obs::Json(curve.patterns_for_fraction(0.995));
  j["patterns_to_100_pct"] = obs::Json(curve.patterns_for_fraction(1.0));
  return j;
}

/// BIST session rows for a data path (both models), or a null Json when
/// skipped (over the gate cap) / interrupted.
obs::Json run_sessions(const UnitCircuit& u, const SweepOptions& opt,
                       rt::RunStatus& status, std::string& skipped) {
  const core::Kernel& k = u.design.report.kernels[u.kernel_index];
  // TPG synthesis has hard structural limits (e.g. the primitive-polynomial
  // table tops out at degree 64); kernels beyond them skip the session
  // phase with the reason recorded instead of failing the sweep.
  std::unique_ptr<sim::BistSession> holder;
  try {
    holder = std::make_unique<sim::BistSession>(u.n, u.elab, u.design.bilbo,
                                                k);
  } catch (const DesignError& e) {
    skipped = e.what();
    return obs::Json();
  }
  sim::BistSession& sess = *holder;
  sess.set_threads(opt.threads);
  sess.set_batch_lanes(opt.lanes);
  obs::Json j = obs::Json::object();
  j["kernel"] = obs::Json("k" + std::to_string(u.kernel_index));
  j["cycles"] = obs::Json(opt.session_cycles);
  for (const std::string& mname : opt.models) {
    const fault::FaultModel model = parse_model(mname);
    sess.set_fault_model(model);
    const fault::FaultList faults = model == fault::FaultModel::kStuckAt
                                        ? sess.kernel_faults()
                                        : sess.kernel_transition_faults();
    const sim::SessionReport rep =
        sess.run(faults, opt.session_cycles, inner_ctl(opt.ctl));
    if (rep.status != rt::RunStatus::kFinished) {
      status = rep.status;
      return obs::Json();
    }
    obs::Json m = obs::Json::object();
    m["faults"] = obs::Json(static_cast<std::uint64_t>(rep.total_faults));
    m["detected_at_outputs"] =
        obs::Json(static_cast<std::uint64_t>(rep.detected_at_outputs));
    m["detected_by_signature"] =
        obs::Json(static_cast<std::uint64_t>(rep.detected_by_signature));
    m["aliased"] = obs::Json(static_cast<std::uint64_t>(rep.aliased));
    j[mname] = std::move(m);
  }
  return j;
}

/// The light oracle subset, by check::standard_oracles() name: engine
/// self-identities that must hold on every healthy tree. Full miter proofs
/// stay in bibs_check; these are the cheap cross-checks worth running per
/// corpus circuit. options_digest folds the names in, so a checkpoint
/// written under another subset is discarded rather than resumed.
constexpr std::array<const char*, 2> kCorpusOracles = {
    "eval_identity", "thread_curve_identity"};

const check::Oracle& standard_oracle(const std::string& name) {
  for (const check::Oracle& o : check::standard_oracles())
    if (o.name == name) return o;
  throw DesignError("no standard oracle named '" + name + "'");
}

obs::Json run_checks(const UnitCircuit& u, const SweepOptions& opt,
                     int& failed) {
  check::OracleContext ctx;
  ctx.ref = &u.comb;
  ctx.impl = &u.comb;
  ctx.seed = opt.seed;
  ctx.patterns = opt.check_patterns;
  ctx.threads = 4;
  ctx.emit_netlist = false;
  obs::Json j = obs::Json::object();
  for (const char* name : kCorpusOracles) {
    const bool pass = standard_oracle(name).fn(ctx).pass;
    j[name] = obs::Json(pass);
    if (!pass) ++failed;
  }
  return j;
}

obs::Json run_unit(const CircuitSpec& spec, const SweepOptions& opt,
                   rt::RunStatus& status, int& failed_checks) {
  const UnitCircuit u = load_circuit(spec, opt);
  obs::Json j = obs::Json::object();
  j["circuit"] = obs::Json(spec.name);
  j["kind"] = obs::Json(to_string(spec.kind));
  j["inputs"] =
      obs::Json(static_cast<std::uint64_t>(u.comb.inputs().size()));
  j["outputs"] =
      obs::Json(static_cast<std::uint64_t>(u.comb.outputs().size()));
  j["gates"] = obs::Json(static_cast<std::uint64_t>(u.comb.gate_count()));
  if (u.has_rtl) {
    j["elab_gates"] =
        obs::Json(static_cast<std::uint64_t>(u.elab.netlist.gate_count()));
    j["dffs"] =
        obs::Json(static_cast<std::uint64_t>(u.elab.netlist.dffs().size()));
  }
  obs::Json models = obs::Json::object();
  for (const std::string& mname : opt.models) {
    obs::Json m = run_model(u, parse_model(mname), opt, status);
    if (status != rt::RunStatus::kFinished) return obs::Json();
    models[mname] = std::move(m);
  }
  j["models"] = std::move(models);
  if (u.has_rtl && opt.run_sessions &&
      u.elab.netlist.gate_count() <= opt.session_gate_limit) {
    std::string skipped;
    obs::Json s = run_sessions(u, opt, status, skipped);
    if (status != rt::RunStatus::kFinished) return obs::Json();
    if (skipped.empty())
      j["session"] = std::move(s);
    else
      j["session_skipped"] = obs::Json(skipped);
  }
  if (opt.run_checks) j["checks"] = run_checks(u, opt, failed_checks);
  return j;
}

void save_checkpoint(const std::string& path, const std::string& digest,
                     const obs::Json& circuits) {
  obs::Json ck = obs::Json::object();
  ck["tool"] = obs::Json("bibs_corpus_checkpoint");
  ck["digest"] = obs::Json(digest);
  ck["circuits"] = circuits;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out.good())
      throw ParseError("cannot write checkpoint '" + tmp + "'");
    out << ck.dump() << "\n";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw ParseError("cannot rename checkpoint '" + tmp + "' to '" + path +
                     "'");
}

/// Completed unit tables from a prior checkpoint, or an empty array when
/// the file is absent or carries a different options digest.
obs::Json load_checkpoint(const std::string& path, const std::string& digest) {
  std::ifstream in(path);
  if (!in.good()) return obs::Json::array();
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::Json ck = obs::Json::parse(ss.str());
  const obs::Json* d = ck.find("digest");
  const obs::Json* c = ck.find("circuits");
  if (d == nullptr || !d->is_string() || d->str() != digest ||
      c == nullptr || !c->is_array())
    return obs::Json::array();
  return *c;
}

void diff_walk(const std::string& path, const obs::Json& a, const obs::Json& b,
               std::size_t max_diffs, std::vector<std::string>& out) {
  if (out.size() >= max_diffs) return;
  if (a.type() != b.type() || a.is_null() || a.is_number() || a.is_string() ||
      a.type() == obs::Json::Type::kBool) {
    if (a.dump() != b.dump())
      out.push_back(path + ": " + a.dump() + " != " + b.dump());
    return;
  }
  if (a.is_array()) {
    if (a.size() != b.size()) {
      out.push_back(path + ": array length " + std::to_string(a.size()) +
                    " != " + std::to_string(b.size()));
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i)
      diff_walk(path + "[" + std::to_string(i) + "]", a.items()[i],
                b.items()[i], max_diffs, out);
    return;
  }
  // Objects: compare in golden key order, then surface keys only one has.
  for (const auto& [k, v] : a.members()) {
    const obs::Json* bv = b.find(k);
    if (bv == nullptr) {
      if (out.size() < max_diffs)
        out.push_back(path + "." + k + ": missing on the fresh side");
      continue;
    }
    diff_walk(path + "." + k, v, *bv, max_diffs, out);
  }
  for (const auto& [k, v] : b.members())
    if (a.find(k) == nullptr && out.size() < max_diffs)
      out.push_back(path + "." + k + ": missing on the golden side");
}

}  // namespace

const char* to_string(CircuitKind k) {
  switch (k) {
    case CircuitKind::kBenchFile: return "bench";
    case CircuitKind::kPaperDatapath: return "datapath";
    case CircuitKind::kFirDatapath: return "fir";
  }
  return "bench";
}

std::vector<CircuitSpec> standard_corpus(const std::string& subset) {
  const auto bench = [](const char* name) {
    CircuitSpec s;
    s.name = name;
    s.kind = CircuitKind::kBenchFile;
    s.file = std::string("iscas85/") + name + ".bench";
    return s;
  };
  const auto paper = [](const char* base, int width) {
    CircuitSpec s;
    s.name = std::string(base) + "_w" + std::to_string(width);
    s.kind = CircuitKind::kPaperDatapath;
    s.file = base;
    s.width = width;
    return s;
  };
  const auto fir = [](int taps, int width) {
    CircuitSpec s;
    s.name = "fir" + std::to_string(taps) + "_w" + std::to_string(width);
    s.kind = CircuitKind::kFirDatapath;
    s.taps = taps;
    s.width = width;
    return s;
  };
  if (subset == "tier1")
    return {bench("c17"), bench("c432"), paper("c5a2m", 2)};
  if (subset == "quick")
    return {bench("c17"),   bench("c432"), bench("c499"),  bench("c880"),
            bench("c1355"), bench("c1908"), bench("c2670"), bench("c3540"),
            paper("c5a2m", 4), fir(16, 4)};
  if (subset == "full")
    return {bench("c17"),   bench("c432"),  bench("c499"),  bench("c880"),
            bench("c1355"), bench("c1908"), bench("c2670"), bench("c3540"),
            bench("c5315"), bench("c6288"), bench("c7552"),
            paper("c5a2m", 8), paper("c3a2m", 8), paper("c4a4m", 8),
            fir(24, 8), fir(48, 8), fir(96, 8)};
  throw DesignError("unknown corpus subset '" + subset +
                    "' (tier1, quick, full)");
}

std::string options_digest(const std::vector<CircuitSpec>& specs,
                           const SweepOptions& opt) {
  std::stringstream ss;
  ss << "seed=" << opt.seed << ";max_patterns=" << opt.max_patterns
     << ";lanes=" << opt.lanes << ";sessions=" << opt.run_sessions
     << ";session_cycles=" << opt.session_cycles
     << ";session_gate_limit=" << opt.session_gate_limit
     << ";checks=" << opt.run_checks
     << ";check_patterns=" << opt.check_patterns << ";oracles=";
  for (const char* o : kCorpusOracles) ss << o << ",";
  ss << ";budgets=";
  for (const std::int64_t b : opt.budgets) ss << b << ",";
  ss << ";models=";
  for (const std::string& m : opt.models) ss << m << ",";
  ss << ";circuits=";
  for (const CircuitSpec& s : specs)
    ss << s.name << "/" << to_string(s.kind) << "/" << s.file << "/" << s.taps
       << "/" << s.width << ",";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(ss.str())));
  return buf;
}

CorpusResult run_corpus(const std::vector<CircuitSpec>& specs,
                        const SweepOptions& opt) {
  obs::Span span("corpus.run");
  // Resolve `lanes` as the sessions do. The process default is latched
  // first, so its first use further down cannot relabel the report away
  // from the backend this sweep is pinned to.
  gate::active_lane_backend();
  const gate::LaneBackend* lb = sim::fault_batching(opt.lanes).backend;
  obs::set_report_label("lanes", lb->name);
  for (const std::string& m : opt.models) parse_model(m);  // validate early

  CorpusResult result;
  result.table = obs::Json::object();
  result.table["tool"] = obs::Json("bibs_corpus");
  result.table["seed"] = obs::Json(opt.seed);
  result.table["max_patterns"] = obs::Json(opt.max_patterns);
  result.table["lanes"] = obs::Json(opt.lanes);
  obs::Json models = obs::Json::array();
  for (const std::string& m : opt.models) models.push_back(obs::Json(m));
  result.table["models"] = std::move(models);
  obs::Json budgets = obs::Json::array();
  for (const std::int64_t b : opt.budgets) budgets.push_back(obs::Json(b));
  result.table["budgets"] = std::move(budgets);

  result.timing = obs::Json::object();
  result.timing["tool"] = obs::Json("bibs_corpus_timing");
  result.timing["lane_backend"] = obs::Json(std::string(lb->name));
  result.timing["threads"] = obs::Json(opt.threads);
  obs::Json times = obs::Json::array();

  const std::string digest = options_digest(specs, opt);
  obs::Json circuits = opt.checkpoint_path.empty()
                           ? obs::Json::array()
                           : load_checkpoint(opt.checkpoint_path, digest);
  const std::size_t resumed = circuits.size();

  using Clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i < resumed) {
      obs::Json t = obs::Json::object();
      t["circuit"] = obs::Json(specs[i].name);
      t["resumed"] = obs::Json(true);
      times.push_back(std::move(t));
      ++result.units_done;
      continue;
    }
    if (const rt::RunStatus st = opt.ctl.interruption(
            static_cast<std::int64_t>(result.units_done));
        st != rt::RunStatus::kFinished) {
      result.status = st;
      break;
    }
    const Clock::time_point t0 = Clock::now();
    rt::RunStatus status = rt::RunStatus::kFinished;
    obs::Json unit =
        run_unit(specs[i], opt, status, result.failed_checks);
    if (status != rt::RunStatus::kFinished) {
      result.status = status;  // unfinished unit dropped whole
      break;
    }
    circuits.push_back(std::move(unit));
    ++result.units_done;
    obs::Json t = obs::Json::object();
    t["circuit"] = obs::Json(specs[i].name);
    t["ms"] = obs::Json(std::chrono::duration_cast<std::chrono::milliseconds>(
                            Clock::now() - t0)
                            .count());
    times.push_back(std::move(t));
    if (!opt.checkpoint_path.empty())
      save_checkpoint(opt.checkpoint_path, digest, circuits);
  }

  result.table["circuits"] = std::move(circuits);
  result.timing["circuits"] = std::move(times);
  return result;
}

std::vector<std::string> diff_tables(const obs::Json& golden,
                                     const obs::Json& fresh,
                                     std::size_t max_diffs) {
  std::vector<std::string> out;
  diff_walk("$", golden, fresh, max_diffs, out);
  return out;
}

}  // namespace bibs::corpus
