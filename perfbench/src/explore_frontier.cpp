// explore_frontier: one adaptive exploration per operation.  Each op runs
// xplore::Explorer (default lattice, TE axis on, a fixed pool of
// kPoolThreads) on one corpus program against a fresh caller-owned
// ResultCache — the cold run only writes to the cache — and then replays it
// warm against the same store, which only reads.  The explorer shares the
// program analyses across its cells, so a Workspace-build change should not
// move this workload; it isolates explorer waves, parallel_for, the Pareto
// update and the cache's write and read paths.

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/pipeline.h"
#include "explore/cache.h"
#include "explore/explorer.h"
#include "harness.h"
#include "ir/serialize.h"

namespace perfbench {

namespace {

constexpr std::size_t kExploreRandomPrograms = 3;
constexpr double kSubWindowSeconds = 2.0;
constexpr double kTailPct = 95.0;

mhla::xplore::ExplorerConfig explorer_config() {
  mhla::xplore::ExplorerConfig config = mhla::xplore::default_explorer();
  config.pipeline.num_threads = kPoolThreads;
  config.explore_te = true;
  return config;
}

bool same_samples(const std::vector<mhla::xplore::ExploreSample>& a,
                  const std::vector<mhla::xplore::ExploreSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].cell == b[i].cell) || a[i].point.l1_bytes != b[i].point.l1_bytes ||
        a[i].point.l2_bytes != b[i].point.l2_bytes || a[i].point.cycles != b[i].point.cycles ||
        a[i].point.energy_nj != b[i].point.energy_nj) {
      return false;
    }
  }
  return true;
}

/// Output checks of one cold + warm pair; empty when sound.
std::string check_pair(const mhla::xplore::ExploreResult& cold,
                       const mhla::xplore::ExploreResult& warm) {
  if (cold.samples.empty() || cold.budget_exhausted) return "cold exploration incomplete";
  for (const mhla::xplore::ExploreSample& s : cold.samples) {
    if (!finite_nonneg(s.point.cycles) || !finite_nonneg(s.point.energy_nj)) {
      return "non-finite or negative cycles/energy";
    }
  }
  if (!same_samples(cold.samples, warm.samples)) return "warm samples differ from cold samples";
  if (warm.evaluations != 0) return "warm replay evaluated cells instead of reading the cache";
  return "";
}

}  // namespace

Result run_explore_frontier(const Options& options) {
  Result result;
  struct Expected {
    std::vector<mhla::xplore::ExploreSample> samples;
    std::size_t evaluations, cache_hits, warm_hits, rounds;
  };
  std::vector<NamedProgram> programs;
  std::vector<std::size_t> order;
  std::vector<Expected> expected;  ///< per program, from the warm-up pass
  std::vector<std::string> warmup_errors;
  const mhla::xplore::Explorer explorer(explorer_config());

  double setup_s = timed_setups([&] {
    programs = registry_programs();
    for (NamedProgram& p : random_programs(options.seed, 2, kExploreRandomPrograms)) {
      programs.push_back(std::move(p));
    }
    order.resize(programs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(options.seed);
    rng.shuffle(order);
    expected.clear();
    warmup_errors.clear();
    for (const NamedProgram& p : programs) {
      mhla::ir::Program program = mhla::ir::parse_program(p.text);
      mhla::xplore::ResultCache cache;
      mhla::xplore::ExploreResult cold = explorer.run(program, cache);
      mhla::xplore::ExploreResult warm = explorer.run(program, cache);
      std::string error = check_pair(cold, warm);
      if (!error.empty()) warmup_errors.push_back(p.name + ": " + error);
      expected.push_back({cold.samples, cold.evaluations, cold.cache_hits, warm.cache_hits,
                          cold.rounds});
    }
  });
  for (const std::string& error : warmup_errors) {
    ++result.attempted;
    result.fail("warm-up: " + error);
  }

  // Traced mode only.  The explorer runs the Workspace analyses once per
  // exploration, before its first wave, with no hook to time them; their
  // cost is estimated here as a Workspace build of the same program (median
  // of five) and attributed as the "analysis" span at the start of each
  // traced cold run and of its warm replay, which repeats the analyses.
  // Wave spans come from ExplorerConfig::on_wave.
  std::vector<double> analysis_ms(programs.size(), 0.0);
  SpanLog log;
  std::uint32_t cur_row = 0;
  std::uint64_t cur_op = 0;
  std::uint64_t wave_start = 0;
  bool cold_phase = false;
  std::unique_ptr<mhla::xplore::Explorer> traced_explorer;
  if (options.trace) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      std::vector<double> ms;
      for (int i = 0; i < 5; ++i) {
        mhla::ir::Program program = mhla::ir::parse_program(programs[p].text);
        std::uint64_t t0 = now_ns();
        mhla::core::make_workspace(std::move(program));
        ms.push_back(ms_between(t0, now_ns()));
      }
      analysis_ms[p] = median(ms);
    }
    mhla::xplore::ExplorerConfig config = explorer_config();
    config.on_wave = [&](const mhla::xplore::ExploreResult&) {
      if (!cold_phase) return;
      std::uint64_t end = now_ns();
      log.add("explore.wave", cur_row, cur_op, wave_start, end);
      wave_start = end;
    };
    traced_explorer = std::make_unique<mhla::xplore::Explorer>(std::move(config));
  }

  std::size_t next = 0;
  auto run_window = [&](double seconds, bool traced, CellSamples& cold_ms, CellSamples& warm_ms,
                        std::size_t& cells) {
    log.enable(traced);
    const mhla::xplore::Explorer& active = traced ? *traced_explorer : explorer;
    std::uint64_t start = now_ns();
    std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    double cold_s = 0.0;
    while (now_ns() < deadline) {
      std::size_t p = order[next++ % order.size()];
      cur_row = static_cast<std::uint32_t>(p);
      cur_op = next;
      ++result.attempted;
      try {
        mhla::xplore::ResultCache cache;
        std::uint64_t t0 = now_ns();
        mhla::ir::Program program = mhla::ir::parse_program(programs[p].text);
        std::uint64_t t_ir = now_ns();
        const auto analysis_ns = static_cast<std::uint64_t>(analysis_ms[p] * 1e6);
        if (traced) {
          wave_start = t_ir + analysis_ns;
          cold_phase = true;
        }
        mhla::xplore::ExploreResult cold = active.run(program, cache);
        std::uint64_t t1 = now_ns();
        cold_phase = false;
        mhla::xplore::ExploreResult warm = active.run(program, cache);
        std::uint64_t t2 = now_ns();
        if (traced) {
          log.add("analysis", cur_row, cur_op, t_ir, std::min(t_ir + analysis_ns, t1));
          log.add("analysis", cur_row, cur_op, t1, std::min(t1 + analysis_ns, t2));
          log.add("ir", cur_row, cur_op, t0, t_ir);
          log.add("explore", cur_row, cur_op, t_ir, t1);
          log.add("explore.warm", cur_row, cur_op, t1, t2);
          log.add("harness", cur_row, cur_op, t0, t2);
        }
        cold_ms.add(p, ms_between(t0, t1));
        warm_ms.add(p, ms_between(t1, t2));
        cold_s += ms_between(t0, t1) * 1e-3;
        cells += cold.evaluations;
        std::string error = check_pair(cold, warm);
        const Expected& want = expected[p];
        if (!error.empty()) {
          result.fail(programs[p].name + ": " + error);
        } else if (!same_samples(cold.samples, want.samples)) {
          result.fail(programs[p].name + ": samples differ from its warm-up exploration");
        } else if (cold.evaluations != want.evaluations || cold.cache_hits != want.cache_hits ||
                   warm.cache_hits != want.warm_hits || cold.rounds != want.rounds) {
          result.count_mismatch(programs[p].name + " explore evaluations/cache hits/rounds");
        }
      } catch (const std::exception& error) {
        result.fail(programs[p].name + ": " + error.what());
      }
    }
    return cold_s;
  };

  CellSamples cold_ms(programs.size(), kTailPct), warm_ms(programs.size(), kTailPct);
  std::size_t cells = 0;
  if (!options.trace) {
    double throughput =
        run_sub_windows(options.seconds, kSubWindowSeconds, /*rotate_cpus=*/false, [&](double s) {
          std::size_t before = cells;
          double cold_s = run_window(s, false, cold_ms, warm_ms, cells);
          cold_ms.end_window();
          warm_ms.end_window();
          return static_cast<double>(cells - before) / cold_s;
        });
    double typical = cold_ms.mean_typical();
    report_end_to_end(result, {typical, cold_ms.tail(typical), throughput}, setup_s);
    return result;
  }

  // Traced run: sub-windows alternate untraced (the overhead baseline) and
  // traced (the spans).
  CellSamples traced_cold(programs.size(), kTailPct), traced_warm(programs.size(), kTailPct);
  bool traced = false;
  const double sub_seconds = std::min(kSubWindowSeconds, options.seconds / 2);
  run_sub_windows(options.seconds, sub_seconds, /*rotate_cpus=*/false, [&](double s) {
    if (traced) {
      run_window(s, true, traced_cold, traced_warm, cells);
      traced_cold.end_window();
      traced_warm.end_window();
    } else {
      run_window(s, false, cold_ms, warm_ms, cells);
      cold_ms.end_window();
    }
    traced = !traced;
    return 0.0;
  });
  std::vector<std::string> names;
  for (const NamedProgram& p : programs) names.push_back(p.name);
  SpanLog::SelfTimes self = log.self_times();
  std::map<std::string, double> shares = print_layer_table(
      "explore_frontier", self, names,
      {"ir", "analysis", "explore", "explore.wave", "explore.warm", "harness"});
  if (!options.trace_dir.empty()) {
    log.write_chrome_trace(options.trace_dir + "/explore_frontier.json", names);
  }
  result.metric("ir.share", shares["ir"], "fraction");
  result.metric("analysis.share", shares["analysis"], "fraction");
  result.metric("explore.share",
                shares["explore"] + shares["explore.wave"] + shares["explore.warm"], "fraction");
  result.metric("harness.share", shares["harness"], "fraction");
  double cold_explorer_ms = self.total_ms["explore"] + self.total_ms["explore.wave"] +
                            self.total_ms["analysis"];
  result.metric("explore.wave_share", self.total_ms["explore.wave"] / cold_explorer_ms,
                "fraction");
  std::size_t evaluations = 0, hits = 0, samples = 0, rounds = 0;
  for (const Expected& e : expected) {
    evaluations += e.evaluations;
    hits += e.cache_hits + e.warm_hits;
    samples += 2 * e.samples.size();
    rounds += e.rounds;
  }
  result.metric("explore.evaluations", static_cast<double>(evaluations), "count");
  result.metric("explore.cache_hit_ratio",
                static_cast<double>(hits) / static_cast<double>(samples), "fraction");
  result.metric("explore.rounds", static_cast<double>(rounds), "count");
  result.metric("explore.warm_cold_ratio",
                traced_warm.mean_typical() / traced_cold.mean_typical(), "fraction");
  result.metric("obs.tracing_overhead_pct",
                100.0 * (traced_cold.mean_typical() / cold_ms.mean_typical() - 1.0), "%");
  return result;
}

}  // namespace perfbench
