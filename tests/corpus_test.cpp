// Tests for the corpus regression harness (src/corpus): subset definitions,
// byte-identity of the table across thread counts and across
// interrupted-and-resumed runs, checkpoint digest hygiene, and the
// diff_tables gate that the CI golden comparison rests on.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "corpus/corpus.hpp"
#include "gate/lanes.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace bibs {
namespace {

using corpus::CircuitKind;
using corpus::CircuitSpec;
using corpus::CorpusResult;
using corpus::SweepOptions;

/// Removes a scratch file on scope exit (and on construction, in case a
/// previous crashed run left one behind).
struct ScratchFile {
  explicit ScratchFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
  std::string path;
};

/// A three-unit mini corpus (two .bench circuits + one data path) with a
/// pattern budget small enough for tier 1.
std::vector<CircuitSpec> mini_specs() {
  std::vector<CircuitSpec> specs;
  specs.push_back({"c17", CircuitKind::kBenchFile, "iscas85/c17.bench", 0, 0});
  specs.push_back(
      {"c432", CircuitKind::kBenchFile, "iscas85/c432.bench", 0, 0});
  specs.push_back({"c5a2m_w2", CircuitKind::kPaperDatapath, "c5a2m", 0, 2});
  return specs;
}

SweepOptions mini_options() {
  SweepOptions opt;
  opt.data_dir = std::string(BIBS_SOURCE_DIR) + "/data";
  opt.max_patterns = 256;
  opt.budgets = {64, 256};
  opt.session_cycles = 256;
  opt.run_checks = false;  // the oracle subset has its own tier-1 coverage
  return opt;
}

TEST(CorpusSubsets, NamedSubsetsAreWellFormed) {
  for (const char* name : {"tier1", "quick", "full"}) {
    const std::vector<CircuitSpec> specs = corpus::standard_corpus(name);
    ASSERT_FALSE(specs.empty()) << name;
    std::set<std::string> names;
    for (const CircuitSpec& s : specs) {
      EXPECT_TRUE(names.insert(s.name).second)
          << "duplicate " << s.name << " in " << name;
    }
  }
  EXPECT_LT(corpus::standard_corpus("tier1").size(),
            corpus::standard_corpus("quick").size());
  EXPECT_LT(corpus::standard_corpus("quick").size(),
            corpus::standard_corpus("full").size());
  // The full subset carries the whole committed ISCAS-85 suite.
  EXPECT_GE(corpus::standard_corpus("full").size(), 11u);
  EXPECT_THROW(corpus::standard_corpus("nope"), DesignError);
}

TEST(CorpusSweep, TableCoversCircuitsAndModels) {
  const CorpusResult r = corpus::run_corpus(mini_specs(), mini_options());
  ASSERT_EQ(r.status, rt::RunStatus::kFinished);
  EXPECT_EQ(r.units_done, 3u);
  // lanes = 64 pins scalar64 even where a wider backend is the process
  // default, and the run report names what ran.
  EXPECT_EQ(obs::Report::collect().labels.at("lanes"), "scalar64");
  const obs::Json* units = r.table.find("circuits");
  ASSERT_NE(units, nullptr);
  ASSERT_EQ(units->size(), 3u);
  for (const obs::Json& u : units->items()) {
    const obs::Json* models = u.find("models");
    ASSERT_NE(models, nullptr);
    for (const char* m : {"stuck_at", "transition"}) {
      const obs::Json* model = models->find(m);
      ASSERT_NE(model, nullptr) << u.dump();
      EXPECT_GT(model->find("faults")->number(), 0.0);
    }
  }
  // The data path ran a BIST session; .bench circuits have no registers.
  EXPECT_NE(units->items()[2].find("session"), nullptr);
  EXPECT_EQ(units->items()[0].find("session"), nullptr);
}

TEST(CorpusSweep, TableIsThreadCountInvariant) {
  SweepOptions opt = mini_options();
  const CorpusResult serial = corpus::run_corpus(mini_specs(), opt);
  ASSERT_EQ(serial.status, rt::RunStatus::kFinished);
  opt.threads = 4;
  const CorpusResult threaded = corpus::run_corpus(mini_specs(), opt);
  ASSERT_EQ(threaded.status, rt::RunStatus::kFinished);
  EXPECT_EQ(serial.table.dump(), threaded.table.dump());
}

/// --lanes sets the session batch width only: fault simulation always runs
/// 64-pattern blocks, so the fault-sim model rows, patterns_run included,
/// are byte-identical at 512 lanes. c6288 detects its last fault at pattern
/// 384 (stuck-at), mid-way through what a 512-pattern block would be.
TEST(CorpusSweep, FaultSimRowsIgnoreLaneWidth) {
  if (!gate::lane_backend_for_lanes(512))
    GTEST_SKIP() << "no CPU-supported 512-lane backend";
  const std::vector<CircuitSpec> specs = {
      {"c6288", CircuitKind::kBenchFile, "iscas85/c6288.bench", 0, 0},
      {"c5a2m_w2", CircuitKind::kPaperDatapath, "c5a2m", 0, 2}};
  SweepOptions opt = mini_options();
  opt.max_patterns = 1024;
  opt.budgets = {64, 256, 1024};
  const CorpusResult narrow = corpus::run_corpus(specs, opt);
  opt.lanes = 512;
  const CorpusResult wide = corpus::run_corpus(specs, opt);
  ASSERT_EQ(narrow.status, rt::RunStatus::kFinished);
  ASSERT_EQ(wide.status, rt::RunStatus::kFinished);
  const obs::Json* a = narrow.table.find("circuits");
  const obs::Json* b = wide.table.find("circuits");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->size(), specs.size());
  ASSERT_EQ(b->size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(a->items()[i].find("models")->dump(),
              b->items()[i].find("models")->dump())
        << specs[i].name;
}

TEST(CorpusSweep, InterruptedRunResumesByteIdentical) {
  const ScratchFile ck("corpus_test_resume_ck.json");
  const std::vector<CircuitSpec> specs = mini_specs();

  SweepOptions straight_opt = mini_options();
  const CorpusResult straight = corpus::run_corpus(specs, straight_opt);
  ASSERT_EQ(straight.status, rt::RunStatus::kFinished);

  // First run: a unit budget of 1 stops after one completed circuit.
  SweepOptions opt = mini_options();
  opt.checkpoint_path = ck.path;
  opt.ctl.budget = 1;
  const CorpusResult part = corpus::run_corpus(specs, opt);
  EXPECT_EQ(part.status, rt::RunStatus::kBudgetExhausted);
  EXPECT_EQ(part.units_done, 1u);

  // Second run resumes from the checkpoint and completes; the final table
  // is byte-identical to the uninterrupted run's.
  opt.ctl = {};
  const CorpusResult resumed = corpus::run_corpus(specs, opt);
  ASSERT_EQ(resumed.status, rt::RunStatus::kFinished);
  EXPECT_EQ(resumed.units_done, 3u);
  EXPECT_EQ(resumed.table.dump(), straight.table.dump());
  // The reused prefix is visible in the timing table, not the diffed one.
  const obs::Json* timing_units = resumed.timing.find("circuits");
  ASSERT_NE(timing_units, nullptr);
  EXPECT_NE(timing_units->items()[0].find("resumed"), nullptr);
}

TEST(CorpusSweep, DigestMismatchDiscardsCheckpoint) {
  const ScratchFile ck("corpus_test_digest_ck.json");
  const std::vector<CircuitSpec> specs = mini_specs();

  SweepOptions opt = mini_options();
  opt.checkpoint_path = ck.path;
  opt.ctl.budget = 1;
  ASSERT_EQ(corpus::run_corpus(specs, opt).status,
            rt::RunStatus::kBudgetExhausted);

  // A result-affecting option changed: the checkpoint must be ignored, not
  // spliced into a table it no longer matches.
  opt.ctl = {};
  opt.seed = 99;
  const CorpusResult fresh = corpus::run_corpus(specs, opt);
  ASSERT_EQ(fresh.status, rt::RunStatus::kFinished);

  SweepOptions clean = mini_options();
  clean.seed = 99;
  const CorpusResult reference = corpus::run_corpus(specs, clean);
  EXPECT_EQ(fresh.table.dump(), reference.table.dump());
}

TEST(CorpusDigest, TracksResultAffectingOptionsOnly) {
  const std::vector<CircuitSpec> specs = mini_specs();
  SweepOptions opt = mini_options();
  const std::string base = corpus::options_digest(specs, opt);
  EXPECT_EQ(base.size(), 16u);

  SweepOptions threaded = opt;
  threaded.threads = 8;
  EXPECT_EQ(corpus::options_digest(specs, threaded), base);

  SweepOptions reseeded = opt;
  reseeded.seed = 2;
  EXPECT_NE(corpus::options_digest(specs, reseeded), base);

  std::vector<CircuitSpec> fewer = specs;
  fewer.pop_back();
  EXPECT_NE(corpus::options_digest(fewer, opt), base);

  // The digest of the same options before it folded in the per-circuit
  // oracle names: checkpoints whose rows carry another oracle set must not
  // resume.
  EXPECT_NE(base, "37f3b953ccede119");
}

TEST(CorpusDiff, CatchesInjectedCoverageChange) {
  std::vector<CircuitSpec> specs = mini_specs();
  specs.resize(1);  // c17 alone keeps this instant
  const CorpusResult r = corpus::run_corpus(specs, mini_options());
  ASSERT_EQ(r.status, rt::RunStatus::kFinished);

  EXPECT_TRUE(corpus::diff_tables(r.table, r.table).empty());

  // Tamper with one coverage percentage in the serialized table — the kind
  // of silent curve shift the CI golden gate exists to catch.
  std::string doc = r.table.dump();
  const std::string::size_type at = doc.find("\"coverage_pct\":\"");
  ASSERT_NE(at, std::string::npos);
  const std::string::size_type digit = at + std::string("\"coverage_pct\":\"")
                                                .size();
  doc[digit] = doc[digit] == '9' ? '8' : '9';
  const obs::Json tampered = obs::Json::parse(doc);
  const std::vector<std::string> diffs = corpus::diff_tables(r.table, tampered);
  ASSERT_FALSE(diffs.empty());
  EXPECT_NE(diffs[0].find("coverage_pct"), std::string::npos);

  // Missing units are reported too, not silently accepted.
  EXPECT_FALSE(corpus::diff_tables(r.table, obs::Json::parse("{}")).empty());
}

}  // namespace
}  // namespace bibs
