// design_flow: the paper's single-run flow, text in, checked assignment and
// four simulation points out.  A closed loop on one thread; each operation
// is Pipeline::run(ir::parse_program(text)) with the production "greedy"
// strategy.  It never touches the explorer, the result caches, exact search
// or serve, so ir, analysis (the Workspace build), assign, te and sim are
// the only layers it times.

#include <algorithm>
#include <cmath>

#include "core/pipeline.h"
#include "harness.h"
#include "ir/serialize.h"

namespace perfbench {

namespace {

/// Fixed L1/L2 points every flow input runs at: below, at and above the
/// library's default platform (4 KiB / 128 KiB).
const std::vector<std::pair<std::int64_t, std::int64_t>> kFlowPoints = {
    {1024, 32 * 1024}, {4096, 128 * 1024}, {16384, 256 * 1024}};
constexpr std::size_t kFlowRandomPrograms = 6;
constexpr double kSubWindowSeconds = 1.0;
constexpr double kTailPct = 99.0;

/// What a flow run returns that must repeat exactly: the result (scalar
/// and points, bit for bit) and the greedy work count.
struct Outcome {
  int evaluations = 0;
  double scalar = 0.0;
  std::vector<double> values;  ///< cycles and energy of the four points
};

Outcome outcome_of(const mhla::core::PipelineResult& run) {
  Outcome out;
  out.evaluations = run.search.evaluations;
  out.scalar = run.search.scalar;
  for (const mhla::sim::SimResult* point :
       {&run.points.out_of_box, &run.points.mhla, &run.points.mhla_te, &run.points.ideal}) {
    out.values.push_back(point->total_cycles());
    out.values.push_back(point->energy_nj);
  }
  return out;
}

/// Output check: a completed (non-budget) status and finite, non-negative
/// cycles and energy at every point.  Empty when the run is sound.
std::string check_run(const mhla::core::PipelineResult& run) {
  using mhla::assign::SearchStatus;
  if (run.search.status == SearchStatus::BudgetExhausted ||
      run.search.status == SearchStatus::Infeasible) {
    return "search status " + mhla::assign::to_string(run.search.status);
  }
  for (double v : outcome_of(run).values) {
    if (!finite_nonneg(v)) return "non-finite or negative cycles/energy";
  }
  return "";
}

}  // namespace

Result run_design_flow(const Options& options) {
  Result result;
  struct Cell {
    std::uint32_t program;
    std::size_t point;
  };
  std::vector<NamedProgram> programs;
  std::vector<mhla::core::Pipeline> pipelines;
  std::vector<Cell> order;
  std::vector<Outcome> expected;  ///< per `order` slot, from the warm-up pass
  std::vector<std::string> warmup_errors;
  std::vector<double> cycles_ratio, energy_ratio;

  // Set-up: inputs, one Pipeline per platform point, the seeded order, and
  // one warm-up pass that also records each cell's reference outcome.
  double setup_s = timed_setups([&] {
    programs = registry_programs();
    for (NamedProgram& p : random_programs(options.seed, 1, kFlowRandomPrograms)) {
      programs.push_back(std::move(p));
    }
    pipelines.clear();
    for (const auto& [l1, l2] : kFlowPoints) {
      mhla::core::PipelineConfig config;
      config.platform.l1_bytes = l1;
      config.platform.l2_bytes = l2;
      config.num_threads = 1;
      pipelines.emplace_back(config);
    }
    order.clear();
    for (std::uint32_t p = 0; p < programs.size(); ++p) {
      for (std::size_t k = 0; k < kFlowPoints.size(); ++k) order.push_back({p, k});
    }
    Rng rng(options.seed);
    rng.shuffle(order);
    expected.clear();
    warmup_errors.clear();
    cycles_ratio.clear();
    energy_ratio.clear();
    for (const Cell& cell : order) {
      mhla::core::PipelineResult run =
          pipelines[cell.point].run(mhla::ir::parse_program(programs[cell.program].text));
      std::string error = check_run(run);
      if (!error.empty()) warmup_errors.push_back(programs[cell.program].name + ": " + error);
      expected.push_back(outcome_of(run));
      cycles_ratio.push_back(run.points.mhla_te.total_cycles() /
                             run.points.out_of_box.total_cycles());
      energy_ratio.push_back(run.points.mhla_te.energy_nj / run.points.out_of_box.energy_nj);
    }
  });
  for (const std::string& error : warmup_errors) {
    ++result.attempted;
    result.fail("warm-up: " + error);
  }

  SpanLog log;
  std::uint32_t cur_row = 0;
  std::uint64_t cur_op = 0;
  auto progress = [&](const std::string& stage, double seconds) {
    std::uint64_t end = now_ns();
    std::uint64_t start = end - static_cast<std::uint64_t>(seconds * 1e9);
    const char* layer = stage == "analyze"       ? "analysis"
                        : stage == "assign"      ? "assign"
                        : stage == "time_extend" ? "te"
                                                 : "sim";
    log.add(layer, cur_row, cur_op, start, end);
  };

  std::size_t next = 0;
  auto run_window = [&](double seconds, bool traced, CellSamples& latencies) {
    log.enable(traced);
    for (mhla::core::Pipeline& p : pipelines) {
      p.set_progress(traced ? mhla::core::Pipeline::ProgressFn(progress) : nullptr);
    }
    std::uint64_t start = now_ns();
    std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      std::size_t slot = next++ % order.size();
      const Cell& cell = order[slot];
      cur_row = cell.program;
      cur_op = next;
      ++result.attempted;
      try {
        std::uint64_t t0 = now_ns();
        mhla::ir::Program program = mhla::ir::parse_program(programs[cell.program].text);
        if (traced) log.add("ir", cur_row, cur_op, t0, now_ns());
        mhla::core::PipelineResult run = pipelines[cell.point].run(std::move(program));
        std::uint64_t t1 = now_ns();
        if (traced) log.add("harness", cur_row, cur_op, t0, t1);
        latencies.add(slot, ms_between(t0, t1));
        std::string error = check_run(run);
        if (!error.empty()) {
          result.fail(programs[cell.program].name + ": " + error);
        } else {
          Outcome outcome = outcome_of(run);
          if (outcome.scalar != expected[slot].scalar ||
              outcome.values != expected[slot].values) {
            result.fail(programs[cell.program].name +
                        ": scalar or points differ from its warm-up run");
          } else if (outcome.evaluations != expected[slot].evaluations) {
            result.count_mismatch(programs[cell.program].name + " greedy evaluations " +
                                  std::to_string(outcome.evaluations) + " vs warm-up " +
                                  std::to_string(expected[slot].evaluations));
          }
        }
      } catch (const std::exception& error) {
        result.fail(programs[cell.program].name + ": " + error.what());
      }
    }
    return ms_between(start, now_ns()) * 1e-3;
  };

  if (!options.trace) {
    CellSamples latencies(order.size(), kTailPct);
    double throughput =
        run_sub_windows(options.seconds, kSubWindowSeconds, /*rotate_cpus=*/true, [&](double s) {
          std::size_t before = latencies.count();
          double elapsed = run_window(s, false, latencies);
          latencies.end_window();
          return static_cast<double>(latencies.count() - before) / elapsed;
        });
    double typical = latencies.mean_typical();
    report_end_to_end(result, {typical, latencies.tail(typical), throughput}, setup_s);
    return result;
  }

  // Traced run: sub-windows alternate untraced (the overhead baseline) and
  // traced (the spans).
  CellSamples latencies(order.size(), kTailPct), traced_latencies(order.size(), kTailPct);
  bool traced = false;
  const double sub_seconds = std::min(kSubWindowSeconds, options.seconds / 2);
  run_sub_windows(options.seconds, sub_seconds, /*rotate_cpus=*/true, [&](double s) {
    CellSamples& samples = traced ? traced_latencies : latencies;
    run_window(s, traced, samples);
    samples.end_window();
    traced = !traced;
    return 0.0;
  });
  std::vector<std::string> names;
  for (const NamedProgram& p : programs) names.push_back(p.name);
  std::map<std::string, double> shares = print_layer_table(
      "design_flow", log.self_times(), names, {"ir", "analysis", "assign", "te", "sim", "harness"});
  if (!options.trace_dir.empty()) {
    log.write_chrome_trace(options.trace_dir + "/design_flow.json", names);
  }
  for (const auto& [layer, share] : shares) result.metric(layer + ".share", share, "fraction");
  long evaluations = 0;
  for (const Outcome& o : expected) evaluations += o.evaluations;
  result.metric("assign.greedy_evaluations", static_cast<double>(evaluations), "count");
  result.metric("sim.cycles_ratio_geomean", geomean(cycles_ratio), "fraction");
  result.metric("sim.energy_ratio_geomean", geomean(energy_ratio), "fraction");
  result.metric("obs.tracing_overhead_pct",
                100.0 * (traced_latencies.mean_typical() / latencies.mean_typical() - 1.0),
                "%");
  return result;
}

}  // namespace perfbench
