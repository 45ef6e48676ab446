#include "sim/session.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "gate/lanes.hpp"
#include "gate/sim.hpp"
#include "obs/obs.hpp"
#include "par/pool.hpp"
#include "sim/lane_engine.hpp"
#include "lfsr/lfsr.hpp"
#include "lfsr/misr.hpp"

namespace bibs::sim {

using gate::Gate;
using gate::GateType;
using gate::NetId;

BistSession::BistSession(const rtl::Netlist& n, const gate::Elaboration& elab,
                         const core::BilboSet& bilbo,
                         const core::Kernel& kernel)
    : n_(&n), elab_(&elab), kernel_(&kernel) {
  BIBS_SPAN("session.build");
  const tpg::GeneralizedStructure s = core::kernel_structure(n, bilbo, kernel);
  tpg_ = tpg::mc_tpg(s);
  depth_ = s.max_depth();

  for (rtl::ConnId e : kernel.input_regs)
    input_q_.push_back(elab.reg_q.at(e));
  for (rtl::ConnId e : kernel.output_regs)
    output_d_.push_back(elab.reg_d.at(e));

  // Kernel cone: backwards from the output D pins through gates and internal
  // registers; input-register Q nets are included as fault sites but not
  // traversed beyond.
  std::unordered_set<NetId> stop;
  for (const gate::Bus& b : input_q_) stop.insert(b.begin(), b.end());
  std::unordered_set<NetId> seen;
  std::deque<NetId> q;
  for (const gate::Bus& b : output_d_)
    for (NetId net : b)
      if (seen.insert(net).second) q.push_back(net);
  while (!q.empty()) {
    const NetId v = q.front();
    q.pop_front();
    cone_.push_back(v);
    if (stop.count(v)) continue;
    for (NetId f : elab.netlist.gate(v).fanin)
      if (seen.insert(f).second) q.push_back(f);
  }
  std::sort(cone_.begin(), cone_.end());
}

fault::FaultList BistSession::kernel_faults() const {
  const fault::FaultList all = fault::FaultList::collapsed(elab_->netlist);
  std::unordered_set<NetId> cone(cone_.begin(), cone_.end());
  // D-pin faults of the kernel's *input* registers are unobservable in this
  // session: the TPG drives those registers, so their mission D path is
  // disconnected. They belong to the session in which the register acts as
  // a signature analyzer for the upstream kernel.
  std::unordered_set<NetId> input_q;
  for (const gate::Bus& b : input_q_) input_q.insert(b.begin(), b.end());
  std::vector<fault::Fault> kept;
  for (const fault::Fault& f : all.faults()) {
    if (!cone.count(f.net)) continue;
    if (f.pin >= 0 && input_q.count(f.net)) continue;
    kept.push_back(f);
  }
  return fault::FaultList::from_faults(std::move(kept));
}

fault::FaultList BistSession::kernel_transition_faults() const {
  const fault::FaultList all = fault::FaultList::transition(elab_->netlist);
  std::unordered_set<NetId> cone(cone_.begin(), cone_.end());
  std::vector<fault::Fault> kept;
  for (const fault::Fault& f : all.faults())
    if (cone.count(f.net)) kept.push_back(f);
  const std::size_t n = kept.size();
  return fault::FaultList::from_faults(std::move(kept), n);
}

void BistSession::set_progress(obs::ProgressFn fn, std::int64_t every_cycles) {
  BIBS_ASSERT(every_cycles > 0);
  progress_ = std::move(fn);
  progress_every_ = every_cycles;
}

void BistSession::set_threads(int threads) {
  BIBS_ASSERT(threads >= 0);
  threads_ = threads;
}

void BistSession::set_batch_lanes(int lanes) {
  fault_batching(lanes);  // validates
  batch_lanes_ = lanes;
}

SessionReport BistSession::run(const fault::FaultList& faults,
                               std::int64_t cycles,
                               const rt::RunControl& ctl,
                               const rt::SessionCheckpoint* resume,
                               rt::SessionCheckpoint* checkpoint) const {
  BIBS_SPAN("session.run");
  BIBS_COUNTER(c_cycles, "session.cycles");
  BIBS_COUNTER(c_batches, "session.batches");
  BIBS_GAUGE(g_coverage, "session.coverage");
  BIBS_GAUGE(g_aliased, "session.aliased");

  if (cycles < 0)
    cycles = static_cast<std::int64_t>(tpg_.pattern_count()) + depth_;

  SessionReport rep;
  rep.cycles = cycles;
  rep.total_faults = faults.size();
  rep.golden_signatures.assign(output_d_.size(), 0);

  // Each batch of up to fb.batch_faults faults re-runs the full `cycles`
  // clocks.
  const FaultBatching fb = batching();
  const std::size_t n_batches = fb.batches(faults.size());

  std::vector<char> det_out(faults.size(), 0);
  std::vector<char> det_sig(faults.size(), 0);
  std::size_t completed = 0;
  if (resume) {
    if (resume->total_faults != faults.size() || resume->cycles != cycles)
      throw DesignError(
          "session checkpoint does not match this run (faults " +
          std::to_string(resume->total_faults) + " vs " +
          std::to_string(faults.size()) + ", cycles " +
          std::to_string(resume->cycles) + " vs " + std::to_string(cycles) +
          ")");
    if (resume->batch_faults != fb.batch_faults) {
      // Batch boundaries move with the lane width; name the width that
      // resumes this checkpoint only if a backend here runs it.
      const std::size_t lanes = resume->batch_faults + 1;
      const bool runnable =
          lanes <= static_cast<std::size_t>(std::numeric_limits<int>::max()) &&
          gate::lane_backend_for_lanes(static_cast<int>(lanes));
      throw DesignError(
          "session checkpoint was written with " +
          std::to_string(resume->batch_faults) +
          "-fault batches but this run uses " +
          std::to_string(fb.batch_faults) + " (" +
          (runnable ? "resume with set_batch_lanes(" + std::to_string(lanes) +
                          ")"
                    : "no compiled-in, CPU-supported lane backend runs " +
                          std::to_string(lanes) + " lanes; rerun without it") +
          ")");
    }
    if (resume->fault_model != fault::to_string(model_))
      throw DesignError("session checkpoint fault model '" +
                        resume->fault_model +
                        "' does not match this run's model '" +
                        fault::to_string(model_) + "'");
    if (resume->batches_done > n_batches ||
        resume->detected_at_outputs.size() != faults.size() ||
        resume->detected_by_signature.size() != faults.size() ||
        (resume->batches_done > 0 &&
         resume->golden_signatures.size() != output_d_.size()))
      throw DesignError("session checkpoint is internally inconsistent");
    completed = resume->batches_done;
    std::copy(resume->detected_at_outputs.begin(),
              resume->detected_at_outputs.end(), det_out.begin());
    std::copy(resume->detected_by_signature.begin(),
              resume->detected_by_signature.end(), det_sig.begin());
    if (completed > 0) rep.golden_signatures = resume->golden_signatures;
  }

  // Progress / budget work units are cycles, cumulative across the whole
  // session including batches a resumed run skips.
  const std::int64_t total_work =
      cycles * static_cast<std::int64_t>(n_batches);
  std::atomic<std::int64_t> work_done{cycles *
                                      static_cast<std::int64_t>(completed)};
  std::int64_t next_progress =
      work_done.load(std::memory_order_relaxed) + progress_every_;

  int max_shift = 0;
  for (const auto& labels : tpg_.cell_label)
    for (int l : labels) max_shift = std::max(max_shift, l - tpg_.min_label);

  // The TPG stimulus is fault-independent, so the whole stage-1 bit stream
  // is generated once and shared read-only by every fault batch (they
  // used to regenerate it with a private LFSR + sliding deque each).
  // bits[j] is the generator's stage-1 value after j+1 steps; the cell with
  // shift s reads bits[max_shift + t - s] at cycle t.
  std::vector<char> stim_bits(static_cast<std::size_t>(cycles) +
                              static_cast<std::size_t>(max_shift));
  {
    lfsr::Type1Lfsr gen(tpg_.poly);
    for (char& b : stim_bits) {
      gen.step();
      b = gen.stage(1) ? 1 : 0;
    }
  }
  struct Stim {
    NetId dff;
    int shift;
  };
  std::vector<Stim> stim;
  for (std::size_t ri = 0; ri < input_q_.size(); ++ri) {
    const auto& labels = tpg_.cell_label[ri];
    for (std::size_t j = 0; j < input_q_[ri].size(); ++j)
      stim.push_back({input_q_[ri][j], labels[j] - tpg_.min_label});
  }

  par::ThreadPool pool(threads_);
  BIBS_GAUGE(g_threads, "par.threads");
  BIBS_GAUGE_SET(g_threads, pool.threads());
  const bool serial = pool.threads() == 1;

  struct BatchResult {
    bool completed = false;
    rt::RunStatus status = rt::RunStatus::kFinished;
    std::vector<char> det_out;          // per fault of this batch
    std::vector<char> det_sig;
    std::vector<std::uint64_t> golden;  // per output register
  };
  std::vector<BatchResult> results(n_batches);

  // Idempotent, so the serial path may merge eagerly (for progress counts)
  // and the prefix scan below may merge again.
  const auto merge_batch = [&](std::size_t bi) {
    const BatchResult& r = results[bi];
    const std::size_t base = bi * fb.batch_faults;
    for (std::size_t k = 0; k < r.det_out.size(); ++k) {
      if (r.det_out[k]) det_out[base + k] = 1;
      if (r.det_sig[k]) det_sig[base + k] = 1;
    }
    if (bi == 0) rep.golden_signatures = r.golden;
  };

  const auto run_batch = [&](std::size_t bi, BatchResult& out) {
    const std::size_t base = bi * fb.batch_faults;
    const std::size_t batch = fb.batch_size(bi, faults.size());
    LaneEngine eng(elab_->netlist,
                   std::span<const fault::Fault>(faults.faults())
                       .subspan(base, batch),
                   fb.backend, model_);

    // One lane-sliced MISR per output register, fed straight from the
    // engine's value words of its D nets (lane l at word l/64, bit l%64;
    // lane 0 is the fault-free machine).
    std::vector<lfsr::LaneMisr> misr;
    std::vector<std::vector<const std::uint64_t*>> misr_in;
    for (const gate::Bus& b : output_d_) {
      misr.emplace_back(
          lfsr::primitive_polynomial(static_cast<int>(b.size())), fb.words);
      auto& in = misr_in.emplace_back();
      for (NetId net : b) in.push_back(eng.value_words(net));
    }

    std::vector<std::uint64_t> out_diff_seen(fb.words, 0);
    for (std::int64_t t = 0; t < cycles; ++t) {
      // Poll run control at 64-cycle granularity; an interrupted batch is
      // discarded whole (resume re-runs it from its start, bit-exactly).
      if ((t & 63) == 0) {
        if (const rt::RunStatus st = ctl.interruption(
                work_done.load(std::memory_order_relaxed));
            st != rt::RunStatus::kFinished) {
          out.status = st;
          return;
        }
      }
      for (const Stim& st : stim)
        eng.set_dff_state(
            st.dff, stim_bits[static_cast<std::size_t>(max_shift + t -
                                                       st.shift)]
                        ? ~0ull
                        : 0ull);
      eng.eval();

      for (std::size_t oi = 0; oi < output_d_.size(); ++oi) {
        misr[oi].step(misr_in[oi]);
        for (const std::uint64_t* vw : misr_in[oi]) {
          const std::uint64_t gold = (vw[0] & 1u) ? ~0ull : 0ull;
          for (std::size_t w = 0; w < fb.words; ++w)
            out_diff_seen[w] |= vw[w] ^ gold;
        }
      }

      eng.clock();

      const std::int64_t done =
          work_done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (serial && progress_ && done >= next_progress) {
        obs::Progress p;
        p.phase = "session";
        p.done = done;
        p.total = total_work;
        p.faults_detected = static_cast<std::int64_t>(
            std::count(det_sig.begin(), det_sig.end(), 1));
        p.faults_live =
            static_cast<std::int64_t>(faults.size()) - p.faults_detected;
        p.coverage = faults.size() == 0
                         ? 1.0
                         : static_cast<double>(p.faults_detected) /
                               static_cast<double>(faults.size());
        progress_(p);
        next_progress = done + progress_every_;
      }
    }

    std::vector<std::uint64_t> sig_diff(fb.words, 0);
    out.golden.resize(output_d_.size());
    for (std::size_t oi = 0; oi < output_d_.size(); ++oi) {
      const std::vector<std::uint64_t> d =
          misr[oi].lanes_differing_from_lane0();
      for (std::size_t w = 0; w < fb.words; ++w) sig_diff[w] |= d[w];
      out.golden[oi] = misr[oi].signature(0);
    }
    out.det_out.assign(batch, 0);
    out.det_sig.assign(batch, 0);
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t lane = k + 1;
      out.det_out[k] = (out_diff_seen[lane >> 6] >> (lane & 63)) & 1u;
      out.det_sig[k] = (sig_diff[lane >> 6] >> (lane & 63)) & 1u;
    }
    out.completed = true;
  };

  // Dispatch the remaining batches as deterministic contiguous chunks; a
  // worker whose batch is interrupted abandons the rest of its chunk (the
  // other workers observe the same stop condition at their next poll).
  if (completed < n_batches) {
    const std::size_t first = completed;
    pool.parallel_for_chunks(
        n_batches - completed, [&](int, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            const std::size_t bi = first + i;
            run_batch(bi, results[bi]);
            if (!results[bi].completed) return;
            if (serial) merge_batch(bi);
          }
        });
  }

  // Keep exactly the completed batch *prefix*: checkpoints record a prefix
  // count, so a batch that finished beyond an interrupted one is discarded
  // and deterministically re-run on resume.
  while (completed < n_batches && results[completed].completed) {
    merge_batch(completed);
    BIBS_COUNTER_ADD(c_cycles, cycles);
    BIBS_COUNTER_ADD(c_batches, 1);
    ++completed;
  }
  if (completed < n_batches) {
    // The first incomplete batch was necessarily the one that observed the
    // stop condition (chunks are contiguous and abandon in order).
    rep.status = results[completed].status;
  }

  rep.detected_at_outputs =
      static_cast<std::size_t>(std::count(det_out.begin(), det_out.end(), 1));
  rep.detected_by_signature =
      static_cast<std::size_t>(std::count(det_sig.begin(), det_sig.end(), 1));
  rep.aliased = rep.detected_at_outputs - rep.detected_by_signature;

  if (checkpoint) {
    checkpoint->cycles = cycles;
    checkpoint->total_faults = faults.size();
    checkpoint->batches_done = completed;
    checkpoint->batch_faults = fb.batch_faults;
    checkpoint->fault_model = fault::to_string(model_);
    checkpoint->detected_at_outputs.assign(det_out.begin(), det_out.end());
    checkpoint->detected_by_signature.assign(det_sig.begin(), det_sig.end());
    checkpoint->golden_signatures = rep.golden_signatures;
  }

  BIBS_GAUGE_SET(g_coverage,
                 rep.total_faults == 0
                     ? 1.0
                     : static_cast<double>(rep.detected_by_signature) /
                           static_cast<double>(rep.total_faults));
  BIBS_GAUGE_SET(g_aliased, rep.aliased);
  if (progress_) {
    obs::Progress p;
    p.phase = "session";
    p.done = work_done.load(std::memory_order_relaxed);
    p.total = total_work;
    p.faults_detected = static_cast<std::int64_t>(rep.detected_by_signature);
    p.faults_live = static_cast<std::int64_t>(rep.total_faults) -
                    p.faults_detected;
    p.coverage = rep.total_faults == 0
                     ? 1.0
                     : static_cast<double>(rep.detected_by_signature) /
                           static_cast<double>(rep.total_faults);
    progress_(p);
  }
  return rep;
}

}  // namespace bibs::sim
