#pragma once
// 64-way pattern-parallel logic simulator over gate::Netlist.
//
// Each net holds a 64-bit word: bit b is the net's value under pattern b of
// the current pattern block. A clocked (DFF-stepping) wrapper around
// EvalProgram::run for examples, benches and tests that drive a netlist
// cycle by cycle. fault::FaultSimulator and sim::LaneEngine (BIST and CSTP
// sessions) are NOT built on it: they run EvalProgram / gate::propagate_fault
// and the gate::LaneBackend kernels directly. The static eval_gate() is the per-gate truth table behind
// gate::reference_eval and the naive single-fault detectors.

#include <cstdint>
#include <vector>

#include "gate/netlist.hpp"
#include "gate/program.hpp"

namespace bibs::gate {

class Simulator {
 public:
  explicit Simulator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }
  const EvalProgram& program() const { return prog_; }

  /// Sets the pattern word on a primary input net.
  void set_input(NetId net, std::uint64_t word);
  /// Overwrites a DFF's current state word (e.g. for BIST reset).
  void set_state(NetId dff, std::uint64_t word);

  /// Evaluates all combinational logic from the current inputs and states.
  void eval();
  /// Clocks every DFF: state <= value(D). Call after eval().
  void clock();
  /// Clears all DFF states to 0.
  void reset();

  std::uint64_t value(NetId net) const {
    return values_[static_cast<std::size_t>(net)];
  }

  /// Convenience: drive a bus (LSB-first net list) with an integer replicated
  /// across all 64 pattern lanes or with per-lane values.
  void set_bus(const std::vector<NetId>& bus, std::uint64_t value_per_lane);
  void set_bus_lane(const std::vector<NetId>& bus, int lane,
                    std::uint64_t value);
  /// Reads the bus value in one lane.
  std::uint64_t bus_value(const std::vector<NetId>& bus, int lane) const;

  /// Single gate evaluation given fan-in words. The generic interpreted
  /// switch: the retained reference the compiled EvalProgram is checked
  /// against (see gate::reference_eval), and the naive-resimulation
  /// primitive of the fault simulator's cross-checks.
  static std::uint64_t eval_gate(GateType t, const std::uint64_t* in,
                                 std::size_t n);

 private:
  const Netlist* nl_;
  EvalProgram prog_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> state_;  // per net; meaningful for DFFs only
};

}  // namespace bibs::gate
