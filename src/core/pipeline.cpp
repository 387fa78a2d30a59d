#include "core/pipeline.h"

#include <chrono>
#include <mutex>

#include "core/parallel_for.h"
#include "core/run_budget.h"
#include "ir/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mhla::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The `search.*` cells every evaluation adds to, looked up once: registry
/// references are stable, so the per-cell flush from explorer and sweep
/// workers never takes the registry mutex.
struct SearchCounters {
  obs::Counter& states_explored;
  obs::Counter& bound_prunes;
  obs::Counter& capacity_prunes;
  obs::Counter& evaluations;
  obs::Counter& budget_probes;
  obs::Histogram& states_per_run;
};

const SearchCounters& search_counters() {
  static const SearchCounters counters = [] {
    obs::Registry& registry = obs::Registry::instance();
    return SearchCounters{registry.counter("search.states_explored"),
                          registry.counter("search.bound_prunes"),
                          registry.counter("search.capacity_prunes"),
                          registry.counter("search.evaluations"),
                          registry.counter("search.budget_probes"),
                          registry.histogram("search.states_per_run")};
  }();
  return counters;
}

double total_of(const std::vector<StageTiming>& timings) {
  double total = 0.0;
  for (const StageTiming& timing : timings) total += timing.seconds;
  return total;
}

}  // namespace

ScopedBudget::ScopedBudget(assign::SearchOptions& options) {
  if (!options.shared_budget && options.budget.bounded()) {
    owned_.emplace(options.budget);
    options.shared_budget = &*owned_;
  }
  token_ = options.shared_budget;
}

ScopedBudget::~ScopedBudget() {
  if (owned_) search_counters().budget_probes.add(owned_->probes());
}

PipelineResult evaluate_cell(const ProgramAnalysis& analysis, const PipelineConfig& cell,
                             const PointRequest& points, const ProgressFn& progress) {
  PipelineResult result;
  result.strategy = cell.strategy;
  const assign::Searcher& strategy = assign::searcher(cell.strategy);
  const mem::Hierarchy hierarchy = mem::make_hierarchy(cell.platform);
  const assign::AssignContext ctx = analysis.context(hierarchy, cell.dma);

  assign::SearchOptions options = cell.search;
  options.set_target(cell.target);

  // One budget token covers the whole cell: the search and the TE pass
  // share it, so a deadline never restarts per stage.  A batch, sweep or
  // exploration driver that already holds a token passes it through.
  const ScopedBudget budget(options);

  // Stage spans carry the StageTiming rows: the span's monotonic clock is
  // the measurement, and the trace ring sees the same interval.
  auto stage = [&](const char* name, auto&& body) {
    obs::Span span(name, "pipeline");
    body();
    double seconds = span.finish();
    result.timings.push_back({name, seconds});
    if (progress) progress(name, seconds);
  };

  stage("assign", [&] { result.search = strategy.search(ctx, options); });

  // Each point is an independent simulation.  Time extension applies only
  // with a transfer engine; without one the mhla_te point is the blocking
  // simulation (which is what a TE pass without an engine yields).
  const te::TransferMode extended =
      cell.dma.present ? te::TransferMode::TimeExtended : te::TransferMode::Blocking;
  if (points.mhla_te) {
    stage("time_extend", [&] {
      te::TeOptions te_options = cell.te;
      te_options.budget = options.shared_budget;
      result.points.mhla_te =
          sim::simulate(ctx, result.search.assignment, {extended, te_options, false});
    });
    // A time extension cut short by the token leaves a truncated mhla_te
    // point behind a finished search: the cell as a whole is truncated, so
    // no cache admits it.
    if (result.points.mhla_te.budget_exhausted &&
        result.search.status != assign::SearchStatus::Infeasible) {
      result.search.status = assign::SearchStatus::BudgetExhausted;
    }
  }
  if (points.out_of_box || points.mhla || points.ideal) {
    stage("simulate", [&] {
      if (points.out_of_box) {
        result.points.out_of_box =
            sim::simulate(ctx, assign::out_of_box(ctx), {te::TransferMode::Blocking, {}, false});
      }
      if (points.mhla) {
        result.points.mhla =
            sim::simulate(ctx, result.search.assignment, {te::TransferMode::Blocking, {}, false});
      }
      if (points.ideal) {
        result.points.ideal =
            sim::simulate(ctx, result.search.assignment, {te::TransferMode::Ideal, {}, false});
      }
    });
  }
  result.total_seconds = total_of(result.timings);

  const SearchCounters& counters = search_counters();
  counters.states_explored.add(result.search.states_explored);
  counters.bound_prunes.add(result.search.bound_prunes);
  counters.capacity_prunes.add(result.search.capacity_prunes);
  counters.evaluations.add(result.search.evaluations);
  counters.states_per_run.record(result.search.states_explored);
  return result;
}

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  assign::searcher(config_.strategy);  // validate the name eagerly
}

PipelineResult Pipeline::run(ir::Program program) const {
  obs::Span span("analyze", "pipeline");
  ir::validate_or_throw(program);
  const ProgramAnalysis analysis(program);
  double analyze_s = span.finish();
  if (progress_) progress_("analyze", analyze_s);
  return evaluate_all(analysis, analyze_s);
}

PipelineResult Pipeline::run(const ProgramAnalysis& analysis) const {
  return evaluate_all(analysis, 0.0);
}

PipelineResult Pipeline::evaluate_all(const ProgramAnalysis& analysis, double analyze_s) const {
  PipelineResult result = evaluate_cell(analysis, config_, PointRequest::all(), progress_);
  result.timings.insert(result.timings.begin(), {"analyze", analyze_s});
  result.total_seconds = total_of(result.timings);
  static obs::Counter& runs = obs::Registry::instance().counter("pipeline.runs");
  runs.add();
  return result;
}

std::vector<PipelineResult> Pipeline::run_batch(std::vector<ir::Program> programs) const {
  // Workers run a progress-silent copy (per-stage callbacks from worker
  // threads would interleave); completion is reported per program instead.
  Pipeline worker(config_);
  std::mutex progress_mutex;

  // A bounded budget spec is promoted to one batch-wide token: every
  // program still runs (degraded, not skipped — results stay positionally
  // aligned), but all of them race the same deadline/probe allowance.
  const ScopedBudget batch_budget(worker.config_.search);

  std::vector<PipelineResult> results(programs.size());
  parallel_for(programs.size(), config_.num_threads, [&](std::size_t i) {
    auto t0 = Clock::now();
    std::string name = programs[i].name();
    results[i] = worker.run(std::move(programs[i]));
    if (progress_) {
      double seconds = seconds_since(t0);
      std::lock_guard<std::mutex> lock(progress_mutex);
      progress_(name, seconds);
    }
  });
  return results;
}

}  // namespace mhla::core
