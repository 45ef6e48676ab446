#pragma once
// End-to-end BIST session emulation: the TPG of Section 4 drives a kernel of
// the elaborated circuit cycle by cycle while MISRs compact the kernel's
// output-register D values, exactly as a silicon BIST session would run.
//
// Fault handling uses classic *parallel-fault* simulation on a
// sim::LaneEngine: lane 0 carries the fault-free machine, lanes 1..L-1
// carry machines with one injected stuck-at fault each, where L is the
// pattern-lane count of the gate::LaneBackend the batches run on (64 on
// scalar64, 512 on avx512; see set_batch_lanes). Signatures are compacted
// lane-sliced: one lfsr::LaneMisr per output register steps all L lanes
// at once on the engine's value words. Detection is judged on final MISR
// signatures, so signature aliasing is modelled (and measured) rather than
// assumed away. Reports are identical at every width — each fault's lane
// evolves independently of its batch neighbours — but checkpoints record
// the batch size and only resume at the same width.
//
// Multi-threading (set_threads / BIBS_THREADS): the (L-1)-fault batches are
// independent whole-session reruns, so they dispatch to pool workers as
// deterministic contiguous chunks, each with its own LaneEngine / TPG / MISR
// state. Results merge in batch order and an interrupted run keeps only the
// completed batch *prefix*, so reports, checkpoints and resume are
// bit-identical for any thread count.

#include <cstdint>
#include <vector>

#include "core/kernels.hpp"
#include "fault/fault.hpp"
#include "gate/synth.hpp"
#include "obs/progress.hpp"
#include "rt/checkpoint.hpp"
#include "rt/control.hpp"
#include "sim/lane_engine.hpp"
#include "tpg/design.hpp"

namespace bibs::sim {

struct SessionReport {
  std::int64_t cycles = 0;
  std::size_t total_faults = 0;
  /// Faults whose faulty machine produced a different value at some output
  /// register D pin at some cycle (detectable by an ideal observer).
  std::size_t detected_at_outputs = 0;
  /// Faults whose final MISR signature differs from the fault-free one.
  std::size_t detected_by_signature = 0;
  /// detected_at_outputs - detected_by_signature: losses to MISR aliasing.
  std::size_t aliased = 0;
  /// Fault-free signature per output register (kernel output order).
  std::vector<std::uint64_t> golden_signatures;
  /// How the run ended; anything but kFinished marks a partial report
  /// (only fully completed 63-fault batches are counted).
  rt::RunStatus status = rt::RunStatus::kFinished;

  /// Bit-identity comparison over every deterministic field — the session
  /// analogue of fault::CoverageCurve comparison, used by the bibs::check
  /// thread-identity sweep (serial report == N-thread report).
  bool operator==(const SessionReport&) const = default;
};

class BistSession {
 public:
  /// The kernel must be balanced BISTable under `bilbo`; the TPG is built
  /// with MC_TPG from the kernel's generalized structure.
  BistSession(const rtl::Netlist& n, const gate::Elaboration& elab,
              const core::BilboSet& bilbo, const core::Kernel& kernel);

  const tpg::TpgDesign& tpg() const { return tpg_; }

  /// Stuck-at faults on the gates inside the kernel's logic cone, collapsed.
  fault::FaultList kernel_faults() const;

  /// Transition (slow-to-rise/slow-to-fall) faults on the stems inside the
  /// kernel's logic cone — the at-speed companion universe to
  /// kernel_faults(). Run them with set_fault_model(kTransition).
  fault::FaultList kernel_transition_faults() const;

  /// Fault model the next run() injects. Stuck-at (the default) treats the
  /// fault list classically; kTransition requires a stem-only list (e.g.
  /// kernel_transition_faults()) and emulates gross one-cycle delays:
  /// consecutive TPG patterns form the launch/capture pairs, so a session
  /// must run at least two cycles to detect anything. Checkpoints record
  /// the model and resume refuses a mismatch.
  void set_fault_model(fault::FaultModel model) { model_ = model; }
  fault::FaultModel fault_model() const { return model_; }

  /// Runs the session for `cycles` clocks (default: the TPG's full pattern
  /// count plus the kernel depth) against the given faults. `ctl` is polled
  /// every 64 emulated cycles (work units are cycles summed across the
  /// fault batches): an interrupted run stops within one 64-cycle slice
  /// and returns a partial report whose `status` says why. `resume` (when
  /// non-null) skips the batches a previous run completed; `checkpoint`
  /// (when non-null) is filled with the state of every batch this run
  /// completed, whatever the final status. A checkpointed-then-resumed run
  /// reproduces the uninterrupted run's signatures and detection flags
  /// bit-exactly, because fault batches are independent.
  SessionReport run(const fault::FaultList& faults, std::int64_t cycles = -1,
                    const rt::RunControl& ctl = {},
                    const rt::SessionCheckpoint* resume = nullptr,
                    rt::SessionCheckpoint* checkpoint = nullptr) const;

  /// Installs a progress callback invoked from run() roughly every
  /// `every_cycles` emulated clock cycles (across all fault batches) and
  /// once more when the run ends. Pass an empty function to disable. With
  /// more than one thread the cadence degrades to batch-merge boundaries
  /// (callbacks still fire on the thread that called run()).
  void set_progress(obs::ProgressFn fn, std::int64_t every_cycles = 4096);

  /// Worker threads for the independent fault batches. 0 (the default)
  /// resolves BIBS_THREADS and falls back to serial; reports, checkpoints
  /// and resume are bit-identical for every value.
  void set_threads(int threads);

  /// Pattern-lane count of the per-batch LaneEngine: each batch carries
  /// lanes - 1 faults next to the fault-free lane 0. 0 (the default)
  /// resolves gate::active_lane_backend(); any other value must be the
  /// lane count of a compiled-in, CPU-supported backend (64 or 512 —
  /// DesignError otherwise; see sim::fault_batching). Reports are
  /// width-invariant; checkpoints are not (they record the batch size, and
  /// resume validates it).
  void set_batch_lanes(int lanes);
  /// The batching the next run() uses (backend and faults per batch).
  FaultBatching batching() const { return fault_batching(batch_lanes_); }

 private:
  const rtl::Netlist* n_;
  const gate::Elaboration* elab_;
  const core::Kernel* kernel_;
  tpg::TpgDesign tpg_;
  int depth_ = 0;
  obs::ProgressFn progress_;
  std::int64_t progress_every_ = 4096;
  int threads_ = 0;  // 0 = BIBS_THREADS, else serial
  int batch_lanes_ = 0;  // 0 = active_lane_backend()
  fault::FaultModel model_ = fault::FaultModel::kStuckAt;

  /// Gate nets belonging to the kernel's cone (fault sites).
  std::vector<gate::NetId> cone_;
  /// Input-register Q nets in TPG register order.
  std::vector<gate::Bus> input_q_;
  /// Output-register D nets in kernel output order.
  std::vector<gate::Bus> output_d_;
};

}  // namespace bibs::sim
