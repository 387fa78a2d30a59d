// exact_search: certified solves in a closed loop on one thread.  Each op
// is one call of a registered exact searcher on a Workspace built at set-up,
// on the registry apps under the 64-placement guard and on seeded random
// programs under the guard, under four schedules (kSchedules): serial
// "bnb", and "bnb-par" with work stealing at kPoolThreads, with the static
// split at kPoolThreads and with the static split on one thread; plus "bnb"
// on qsdpcm (above the guard) with a probe budget, so the anytime path stops
// at a reproducible point.  Nearly all the time goes to the engine's bounds,
// the FootprintTracker and the bnb-par schedulers.

#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/registry.h"
#include "assign/search.h"
#include "core/pipeline.h"
#include "gen/random_program.h"
#include "harness.h"
#include "ir/serialize.h"

namespace perfbench {

namespace {

/// Registry apps whose exact search fits the engine placement guard.
const std::vector<std::string> kGuardApps = {"conv_filter", "cavity_detection", "adpcm_coder",
                                             "motion_estimation"};
const std::string kAnytimeApp = "qsdpcm";
constexpr long kAnytimeProbes = 20000;

/// Seeded random instances: drawn until kExactRandomPrograms have at most
/// kReferencePlacementGuard placements and a serial search of at least
/// kMinStates states.  The size cap keeps the copy phase to at most 3^12
/// nodes: above it, some small programs make bnb walk tens of millions of
/// copy-phase nodes that no probe counts (see README.md, "Findings").
constexpr std::size_t kExactRandomPrograms = 2;
constexpr long kMinStates = 200;
constexpr int kMaxDraws = 2000;
constexpr double kSubWindowSeconds = 4.0;
constexpr double kTailPct = 90.0;

/// One way to run the exact search.  The static-split schedules answer the
/// scheduler question within the run: static vs stealing at the same
/// thread count, and the static split on one thread vs serial bnb.
struct Schedule {
  const char* label;
  const char* strategy;
  unsigned threads;
  bool work_stealing;
};
const Schedule kSerial = {"bnb", "bnb", 0, true};
const Schedule kStealing = {"bnb-par", "bnb-par", kPoolThreads, true};
const Schedule kStatic = {"bnb-par-static", "bnb-par", kPoolThreads, false};
const Schedule kStatic1 = {"bnb-par-static@1", "bnb-par", 1, false};
const std::vector<const Schedule*> kSchedules = {&kSerial, &kStealing, &kStatic, &kStatic1};

mhla::assign::SearchOptions search_options(const Schedule& schedule) {
  mhla::assign::SearchOptions options;
  options.set_target(mhla::assign::Target::Balanced);
  if (schedule.threads > 0) options.bnb_threads = schedule.threads;
  options.bnb_work_stealing = schedule.work_stealing;
  return options;
}

std::size_t placements(const mhla::core::Workspace& ws) {
  return ws.context().reuse.candidates().size() *
         static_cast<std::size_t>(std::max(ws.hierarchy().background(), 1));
}

}  // namespace

Result run_exact_search(const Options& options) {
  Result result;
  struct Instance {
    std::string name;
    std::unique_ptr<mhla::core::Workspace> workspace;
    bool registry = false;
    bool anytime = false;
    mhla::assign::SearchResult serial;  ///< reference: the warm-up serial solve
  };
  struct Entry {
    std::size_t instance;
    const Schedule* schedule;
    mhla::assign::SearchOptions options;
  };
  std::vector<Instance> instances;
  std::vector<Entry> entries;
  std::vector<std::size_t> order;

  double setup_s = timed_setups([&] {
    instances.clear();
    for (const std::string& app : kGuardApps) {
      instances.push_back(
          {app, mhla::core::make_workspace(mhla::apps::build_app(app)), true, false, {}});
    }
    Rng rng(options.seed * 0x100000001b3ULL + 3);
    std::size_t found = 0;
    for (int draw = 0; found < kExactRandomPrograms; ++draw) {
      if (draw == kMaxDraws) throw std::runtime_error("no random exact-search instance found");
      auto program_seed = static_cast<std::uint32_t>(rng.next());
      std::string text = mhla::ir::serialize(mhla::gen::random_program(program_seed));
      auto ws = mhla::core::make_workspace(mhla::ir::parse_program(text));
      if (placements(*ws) > mhla::assign::kReferencePlacementGuard) continue;
      mhla::assign::SearchResult r =
          mhla::assign::searcher("bnb").search(ws->context(), search_options(kSerial));
      if (r.status != mhla::assign::SearchStatus::Optimal || r.states_explored < kMinStates) {
        continue;
      }
      instances.push_back(
          {"random_" + std::to_string(program_seed), std::move(ws), false, false, {}});
      ++found;
    }
    instances.push_back({kAnytimeApp,
                         mhla::core::make_workspace(mhla::apps::build_app(kAnytimeApp)), true,
                         true, {}});

    entries.clear();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].anytime) {
        entries.push_back({i, &kSerial, search_options(kSerial)});
        entries.back().options.budget.max_probes = kAnytimeProbes;
        continue;
      }
      for (const Schedule* schedule : kSchedules) {
        entries.push_back({i, schedule, search_options(*schedule)});
      }
    }
    order.resize(entries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng order_rng(options.seed);
    order_rng.shuffle(order);
    // Warm-up pass, which also records each instance's serial reference.
    for (std::size_t e : order) {
      const Entry& entry = entries[e];
      Instance& inst = instances[entry.instance];
      mhla::assign::SearchResult r = mhla::assign::searcher(entry.schedule->strategy)
                                         .search(inst.workspace->context(), entry.options);
      if (entry.schedule == &kSerial) inst.serial = std::move(r);
    }
  });

  // Checks of one solve against the contract and the serial reference.
  auto check = [&](const Entry& entry, const mhla::assign::SearchResult& r) {
    using mhla::assign::SearchStatus;
    const Instance& inst = instances[entry.instance];
    if (!finite_nonneg(r.scalar)) return inst.name + ": non-finite or negative scalar";
    if (inst.anytime) {
      if (r.status == SearchStatus::BudgetExhausted ? !finite_nonneg(r.gap)
                                                     : r.status != SearchStatus::Optimal) {
        return inst.name + ": anytime solve without a certified gap";
      }
    } else if (r.status != SearchStatus::Optimal) {
      return inst.name + " " + entry.schedule->label + ": status " +
             mhla::assign::to_string(r.status);
    }
    if (r.scalar != inst.serial.scalar || !(r.assignment == inst.serial.assignment)) {
      return inst.name + " " + entry.schedule->label + ": result differs from the serial bnb solve";
    }
    if (entry.schedule == &kSerial &&
        (r.states_explored != inst.serial.states_explored ||
         r.bound_prunes != inst.serial.bound_prunes ||
         r.capacity_prunes != inst.serial.capacity_prunes)) {
      result.count_mismatch(inst.name + " serial bnb states/prunes");
    }
    return std::string();
  };
  for (const Instance& inst : instances) {
    // The serial reference itself must be a sound, simulable assignment.
    ++result.attempted;
    const mhla::assign::AssignContext ctx = inst.workspace->context();
    mhla::sim::SimResult sim = mhla::sim::simulate(
        ctx, inst.serial.assignment, {mhla::te::TransferMode::TimeExtended, {}, false});
    if (!finite_nonneg(sim.total_cycles()) || !finite_nonneg(sim.energy_nj)) {
      result.fail(inst.name + ": non-finite or negative cycles/energy");
    }
  }

  SpanLog log;
  std::size_t next = 0;
  std::size_t registry_solves = 0;  ///< solves of registry instances, and
  double registry_s = 0.0;          ///< their summed solve time
  auto run_window = [&](double seconds, bool traced, CellSamples& latencies) {
    log.enable(traced);
    std::uint64_t start = now_ns();
    std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      std::size_t e = order[next++ % order.size()];
      const Entry& entry = entries[e];
      ++result.attempted;
      try {
        std::uint64_t t0 = now_ns();
        mhla::assign::SearchResult r =
            mhla::assign::searcher(entry.schedule->strategy)
                .search(instances[entry.instance].workspace->context(), entry.options);
        std::uint64_t t1 = now_ns();
        if (traced) {
          auto row = static_cast<std::uint32_t>(entry.instance);
          log.add(entry.schedule == &kSerial ? "exact.bnb" : "exact.bnb_par", row, next, t0, t1);
          log.add("harness", row, next, t0, now_ns());
        }
        latencies.add(e, ms_between(t0, t1));
        if (instances[entry.instance].registry) {
          ++registry_solves;
          registry_s += ms_between(t0, t1) * 1e-3;
        }
        std::string error = check(entry, r);
        if (!error.empty()) result.fail(error);
      } catch (const std::exception& error) {
        result.fail(instances[entry.instance].name + ": " + error.what());
      }
    }
    return ms_between(start, now_ns()) * 1e-3;
  };

  // The end-to-end latency is the geometric mean over the registry
  // (instance, schedule) pairs of their median solve, and the throughput is
  // registry solves per second of registry solve time.  The seeded random
  // instances run in the same loop and are checked the same way, but stay
  // out of both: their solve times span orders of magnitude from seed to
  // seed.
  auto registry_geomean = [&](const CellSamples& latencies) {
    std::vector<double> medians;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      double m = latencies.typical_of(e);
      if (instances[entries[e].instance].registry && m > 0.0) medians.push_back(m);
    }
    return geomean(medians);
  };

  CellSamples latencies(entries.size(), kTailPct);
  if (!options.trace) {
    double throughput =
        run_sub_windows(options.seconds, kSubWindowSeconds, /*rotate_cpus=*/false, [&](double s) {
          registry_solves = 0;
          registry_s = 0.0;
          run_window(s, false, latencies);
          latencies.end_window();
          return static_cast<double>(registry_solves) / registry_s;
        });
    double typical = registry_geomean(latencies);
    report_end_to_end(result, {typical, latencies.tail(typical), throughput}, setup_s);
    return result;
  }

  // Traced run: sub-windows alternate untraced (the overhead baseline) and
  // traced (the spans).
  CellSamples traced(entries.size(), kTailPct);
  bool traced_window = false;
  const double sub_seconds = std::min(kSubWindowSeconds, options.seconds / 2);
  run_sub_windows(options.seconds, sub_seconds, /*rotate_cpus=*/false, [&](double s) {
    CellSamples& samples = traced_window ? traced : latencies;
    run_window(s, traced_window, samples);
    samples.end_window();
    traced_window = !traced_window;
    return 0.0;
  });
  std::vector<std::string> names;
  for (const Instance& inst : instances) names.push_back(inst.name);
  std::map<std::string, double> shares = print_layer_table(
      "exact_search", log.self_times(), names, {"exact.bnb", "exact.bnb_par", "harness"});
  if (!options.trace_dir.empty()) {
    log.write_chrome_trace(options.trace_dir + "/exact_search.json", names);
  }
  result.metric("exact.share", shares["exact.bnb"] + shares["exact.bnb_par"], "fraction");
  result.metric("harness.share", shares["harness"], "fraction");

  // Schedule comparisons per instance, from the untraced sub-windows'
  // typical solve times: `slower` over `faster` schedule.  Each is reported
  // per registry instance and as the geomean over every exact instance.
  auto typical = [&](std::size_t instance, const Schedule& schedule) {
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (entries[e].instance == instance && entries[e].schedule == &schedule) {
        return latencies.typical_of(e);
      }
    }
    return 0.0;
  };
  auto report_ratio = [&](const std::string& name, const Schedule& slower,
                          const Schedule& faster) {
    std::vector<double> ratios;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      double num = typical(i, slower), den = typical(i, faster);
      if (instances[i].anytime || num == 0.0 || den == 0.0) continue;  // unsampled
      ratios.push_back(num / den);
      if (instances[i].registry) result.metric(name + "." + instances[i].name, num / den, "x");
    }
    result.metric(name, geomean(ratios), "x");
  };
  report_ratio("assign.bnb_par_speedup", kSerial, kStealing);
  report_ratio("assign.stealing_over_static", kStatic, kStealing);
  report_ratio("assign.static1_speedup", kSerial, kStatic1);

  long states = 0, prunes = 0;
  double serial_s = 0.0;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const Instance& inst = instances[entries[e].instance];
    if (entries[e].schedule != &kSerial) continue;
    states += inst.serial.states_explored;
    prunes += inst.serial.bound_prunes + inst.serial.capacity_prunes;
    serial_s += latencies.typical_of(e) * 1e-3;
    if (inst.anytime) result.metric("assign.anytime_gap", inst.serial.gap, "fraction");
  }
  result.metric("assign.bnb_states", static_cast<double>(states), "count");
  result.metric("assign.bnb_prune_ratio",
                static_cast<double>(prunes) / static_cast<double>(states), "ratio");
  result.metric("assign.bnb_states_per_s", static_cast<double>(states) / serial_s, "1/s");
  result.metric("obs.tracing_overhead_pct",
                100.0 * (registry_geomean(traced) / registry_geomean(latencies) - 1.0), "%");
  return result;
}

}  // namespace perfbench
