#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "assign/search.h"
#include "core/driver.h"

namespace mhla::core {

/// Everything one MHLA run needs, in one value: the platform, the transfer
/// engine, the search strategy (by registry name) with its options, the
/// time-extension options, and the batch parallelism.  Serializes to/from
/// JSON (core/json_report.h) so batch drivers and external tooling can
/// describe runs as documents.
struct PipelineConfig {
  mem::PlatformConfig platform;
  mem::DmaEngine dma;

  std::string strategy = "greedy";  ///< assign::searcher() registry name
  assign::Target target = assign::Target::Balanced;

  /// Strategy options.  For the named targets the weights are replaced by
  /// `target`'s canonical mapping when the pipeline runs (`target` is
  /// authoritative); `Target::Custom` keeps the explicit weights below.
  /// Every other field passes through to the selected strategy.
  assign::SearchOptions search;

  te::TeOptions te;

  /// Worker threads for `run_batch`: 0 picks the hardware concurrency,
  /// 1 forces the serial path.  Single runs ignore it.
  unsigned num_threads = 0;

  friend bool operator==(const PipelineConfig&, const PipelineConfig&) = default;
};

/// Wall-clock of one pipeline stage.
struct StageTiming {
  std::string stage;  ///< "analyze", "assign", "time_extend", "simulate"
  double seconds = 0.0;
};

/// Result of one pipeline run: the search outcome, the four reference
/// simulation points of the paper's figures, and per-stage timings.
struct PipelineResult {
  std::string strategy;  ///< registry name that produced `search`
  assign::SearchResult search;
  sim::FourPoint points;
  std::vector<StageTiming> timings;
  double total_seconds = 0.0;  ///< sum of `timings`, in order
};

/// Called after each stage with the stage name and its wall-clock.
using ProgressFn = std::function<void(const std::string& stage, double seconds)>;

/// Which of the four reference points a cell evaluation simulates.
struct PointRequest {
  bool out_of_box = false;  ///< everything off-chip, no search needed
  bool mhla = false;        ///< the found assignment, blocking transfers
  bool mhla_te = false;     ///< the found assignment with time extensions
  bool ideal = false;       ///< the found assignment, zero-wait transfers

  static PointRequest all() { return {true, true, true, true}; }

  /// The one point that stands for a design cell: `mhla_te` with time
  /// extensions on, `mhla` with them off (see `canonical_point`).
  static PointRequest canonical(bool with_te) { return {false, !with_te, with_te, false}; }
};

/// The canonical point of a cell, out of an evaluation that requested it.
inline const sim::SimResult& canonical_point(const sim::FourPoint& points, bool with_te) {
  return with_te ? points.mhla_te : points.mhla;
}

/// The run-budget token of one run (a cell, a batch, a sweep or an
/// exploration).  The constructor promotes a bounded `options.budget` to a
/// token owned by this scope and shares it through `options.shared_budget`,
/// so every search and time extension that runs with `options` draws on it.
/// A token the caller already shares wins; an unbounded spec shares
/// nothing.  The destructor adds the probes charged to an owned token to
/// the `search.budget_probes` counter, once, so each probe is counted by
/// exactly the scope that created its token.
class ScopedBudget {
 public:
  explicit ScopedBudget(assign::SearchOptions& options);
  ~ScopedBudget();

  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

  /// The shared token (owned or passed through); null when unbounded.
  RunBudget* get() const { return token_; }

 private:
  std::optional<RunBudget> owned_;
  RunBudget* token_ = nullptr;
};

/// Evaluate one design cell: the only code that runs a search or a
/// simulation for Pipeline, Explorer, sweep and serve.  Once per call it
///  - maps `cell.target` to search weights,
///  - builds the hierarchy of `cell.platform`,
///  - makes a run-budget token from `cell.search.budget`, or passes through
///    `cell.search.shared_budget`, shared by the search and the time
///    extension,
///  - runs `cell.strategy`'s search and simulates each requested point,
///    under time extension only when `cell.dma` is present,
///  - emits the "assign", "time_extend" and "simulate" spans (the last two
///    only when a point of theirs was requested), calling `progress` right
///    after each, and
///  - adds the search's effort to the `search.*` counters.
/// A time extension stopped by the token marks the whole cell truncated:
/// `search.status` becomes BudgetExhausted even when the search finished,
/// so no cache admits the cell.
/// Points not requested stay default-constructed.  The result's timings
/// list the stages that ran; `total_seconds` is their sum.
PipelineResult evaluate_cell(const ProgramAnalysis& analysis, const PipelineConfig& cell,
                             const PointRequest& points, const ProgressFn& progress = nullptr);

/// Staged MHLA driver: analyze -> assign -> time-extend -> simulate, with
/// one PipelineConfig driving every stage.  The last three stages are one
/// `evaluate_cell` of all four points.
class Pipeline {
 public:
  /// Validates the strategy name against the registry (throws
  /// std::out_of_range listing the registered names on a miss).
  explicit Pipeline(PipelineConfig config);

  const PipelineConfig& config() const { return config_; }

  /// Called after each stage with the stage name and its wall-clock.
  /// `run_batch` reports once per finished program instead (stage =
  /// program name), serialized by an internal mutex.
  using ProgressFn = core::ProgressFn;
  void set_progress(ProgressFn progress) { progress_ = std::move(progress); }

  /// Full run including the analyze stage (validation and the program
  /// analyses).
  PipelineResult run(ir::Program program) const;

  /// Run on a prebuilt program analysis (e.g. a workspace's); the analyze
  /// stage is reported as 0 s.  The analysis carries no platform: the
  /// config's platform and DMA engine are the only ones used.
  PipelineResult run(const ProgramAnalysis& analysis) const;

  /// One run per program, evaluated on a `core::parallel_for` pool of
  /// `config().num_threads` workers.  Results are positionally aligned with
  /// the inputs and identical for every thread count.
  std::vector<PipelineResult> run_batch(std::vector<ir::Program> programs) const;

 private:
  /// The four points of `analysis` under `config_`, behind an "analyze"
  /// stage of `analyze_s` seconds.
  PipelineResult evaluate_all(const ProgramAnalysis& analysis, double analyze_s) const;

  PipelineConfig config_;
  ProgressFn progress_;
};

}  // namespace mhla::core
