#pragma once

#include "assign/assignment.h"

namespace mhla::assign {

/// Scalarization of (energy, time) used by the search heuristics.
/// Weights are relative to the out-of-box baseline, so energy_weight = 1,
/// time_weight = 1 values both objectives equally regardless of units.
///
/// The energy model counts memory-hierarchy accesses only, exactly like the
/// paper ("in our models we only consider accesses to the memory
/// hierarchy"), so time extensions never change the energy term.
struct Objective {
  double energy_weight = 1.0;
  double time_weight = 0.0;
  double baseline_energy_nj = 1.0;
  double baseline_cycles = 1.0;

  /// Scalarize raw (energy, cycles) totals.
  double scalar_terms(double energy_nj, double total_cycles) const {
    double e = energy_nj / baseline_energy_nj;
    double t = total_cycles / baseline_cycles;
    return energy_weight * e + time_weight * t;
  }
};

/// CPU cycles (statement computation + processor access latency, *excluding*
/// block-transfer stalls) spent in each top-level nest under the resolved
/// assignment `res`.  This is the "hiding budget" the time extensions draw
/// from.
std::vector<double> nest_cpu_cycles(const AssignContext& ctx, const Resolution& res);

/// CPU cycles of a single iteration of `loop` (which must belong to nest
/// `nest`) under the resolved assignment `res`, again excluding transfer
/// stalls.  Used by TE's iteration lookahead: prefetching one carrying-loop
/// iteration ahead can hide at most this many cycles per block transfer.
/// TE calls it once per block transfer for one fixed resolution.
double loop_iteration_cpu_cycles(const AssignContext& ctx, const Resolution& res, int nest,
                                 const ir::LoopNode* loop);

}  // namespace mhla::assign
