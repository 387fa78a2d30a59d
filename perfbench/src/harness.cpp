#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "apps/registry.h"
#include "gen/random_program.h"
#include "ir/serialize.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t Rng::below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(rank));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double resolvable_tail(std::size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

void CellSamples::end_window() {
  std::vector<double> ratios;
  for (std::size_t cell = 0; cell < samples_.size(); ++cell) {
    std::vector<double> window(samples_[cell].begin() + static_cast<long>(window_start_[cell]),
                               samples_[cell].end());
    window_start_[cell] = samples_[cell].size();
    if (window.empty()) continue;
    double mid = median(window);
    for (double ms : window) ratios.push_back(ms / mid);
  }
  if (ratios.empty()) return;
  double ratio = percentile(ratios, std::min(tail_pct_, resolvable_tail(ratios.size())));
  if (best_tail_ratio_ == 0.0 || ratio < best_tail_ratio_) best_tail_ratio_ = ratio;
}

double CellSamples::typical_of(std::size_t cell) const {
  return percentile(samples_[cell], kTypicalPct);
}

double CellSamples::mean_typical() const {
  double sum = 0.0;
  std::size_t cells = 0;
  for (std::size_t cell = 0; cell < samples_.size(); ++cell) {
    if (samples_[cell].empty()) continue;
    sum += typical_of(cell);
    ++cells;
  }
  return cells == 0 ? 0.0 : sum / static_cast<double>(cells);
}

std::vector<NamedProgram> registry_programs() {
  std::vector<NamedProgram> programs;
  for (const mhla::apps::AppInfo& app : mhla::apps::all_apps()) {
    programs.push_back({app.name, mhla::ir::serialize(app.build())});
  }
  return programs;
}

std::vector<NamedProgram> random_programs(std::uint64_t seed, std::uint64_t salt,
                                          std::size_t count) {
  Rng rng(seed * 0x100000001b3ULL + salt);
  std::vector<NamedProgram> programs;
  for (std::size_t i = 0; i < count; ++i) {
    auto program_seed = static_cast<std::uint32_t>(rng.next());
    programs.push_back({"random_" + std::to_string(program_seed),
                        mhla::ir::serialize(mhla::gen::random_program(program_seed))});
  }
  return programs;
}

void SpanLog::add(const char* layer, std::uint32_t row, std::uint64_t op, std::uint64_t start_ns,
                  std::uint64_t end_ns) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({layer, row, op, start_ns, end_ns});
}

SpanLog::SelfTimes SpanLog::self_times() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  // Parents sort before their children: by op, then start, then longest.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  SelfTimes out;
  std::vector<std::size_t> stack;
  std::vector<double> self_ms(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty() && (spans[stack.back()].op != s.op ||
                              spans[stack.back()].end_ns <= s.start_ns)) {
      stack.pop_back();
    }
    self_ms[i] = ms_between(s.start_ns, s.end_ns);
    if (!stack.empty()) self_ms[stack.back()] -= self_ms[i];
    else ++out.row_ops[s.row];
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.total_ms[spans[i].layer] += self_ms[i];
    out.rows[spans[i].row][spans[i].layer] += self_ms[i];
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::vector<std::string>& rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start_ns);
  out << "{\"traceEvents\": [";
  const char* sep = "\n";
  char buf[96];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns - epoch) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << sep << "{\"name\": \"" << s.layer << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.row << ", \"ts\": " << buf << ", \"args\": {\"op\": " << s.op << ", \"row\": \""
        << (s.row < rows.size() ? rows[s.row] : std::string("?")) << "\"}}";
    sep = ",\n";
  }
  out << "\n]}\n";
}

void Result::fail(const std::string& why) {
  ++failed;
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

void Result::count_mismatch(const std::string& what) {
  if (count_mismatches++ < 4) {
    std::cerr << "mhla_perfbench: nondeterminism: " << what << "\n";
  }
}

std::map<std::string, double> print_layer_table(const std::string& workload,
                                                const SpanLog::SelfTimes& self,
                                                const std::vector<std::string>& row_names,
                                                const std::vector<std::string>& layers) {
  auto print_row = [&](const std::string& name, std::size_t ops,
                       const std::map<std::string, double>& ms) {
    double total = 0.0;
    for (const auto& [layer, v] : ms) total += v;
    std::printf("%-26s %7zu %10.1f", name.c_str(), ops, total);
    std::map<std::string, double> shares;
    for (const std::string& layer : layers) {
      auto it = ms.find(layer);
      double share = it == ms.end() || total <= 0.0 ? 0.0 : it->second / total;
      shares[layer] = share;
      std::printf(" %13.1f%%", 100.0 * share);
    }
    std::printf("\n");
    return shares;
  };
  std::printf("layer self-time shares, workload %s (traced sub-windows)\n",
              workload.c_str());
  std::printf("%-26s %7s %10s", "program", "ops", "traced_ms");
  for (const std::string& layer : layers) std::printf(" %14s", layer.c_str());
  std::printf("\n");
  std::size_t total_ops = 0;
  for (const auto& [row, ms] : self.rows) {
    std::size_t ops = self.row_ops.count(row) ? self.row_ops.at(row) : 0;
    total_ops += ops;
    print_row(row < row_names.size() ? row_names[row] : "?", ops, ms);
  }
  return print_row("ALL", total_ops, self.total_ms);
}

double run_sub_windows(double seconds, double sub_seconds, bool rotate_cpus,
                       const std::function<double(double)>& measure) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (rotate_cpus && sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  auto count = std::max<long>(1, std::lround(seconds / sub_seconds));
  double best = 0.0;
  for (long i = 0; i < count; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    best = std::max(best, measure(seconds / static_cast<double>(count)));
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof allowed, &allowed);
  return best;
}

void report_end_to_end(Result& result, const WindowFigures& figures, double setup_s) {
  result.metric("op_latency_ms", figures.latency_ms, "ms");
  result.metric("op_tail_ms", figures.tail_ms, "ms");
  result.metric("throughput_per_s", figures.throughput_per_s, "1/s");
  result.metric("setup_s", setup_s, "s");
}

double timed_setups(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    std::uint64_t t0 = now_ns();
    setup();
    seconds.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  return median(seconds);
}

bool finite_nonneg(double value) { return std::isfinite(value) && value >= 0.0; }

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"ir.share", "fraction"},
      {"analysis.share", "fraction"},
      {"assign.share", "fraction"},
      {"te.share", "fraction"},
      {"sim.share", "fraction"},
      {"explore.share", "fraction"},
      {"exact.share", "fraction"},
      {"serve.share", "fraction"},
      {"harness.share", "fraction"},
      {"assign.greedy_evaluations", "count"},
      {"sim.cycles_ratio_geomean", "fraction"},
      {"sim.energy_ratio_geomean", "fraction"},
      {"explore.evaluations", "count"},
      {"explore.cache_hit_ratio", "fraction"},
      {"explore.rounds", "count"},
      {"explore.wave_share", "fraction"},
      {"explore.warm_cold_ratio", "fraction"},
      {"assign.bnb_states", "count"},
      {"assign.bnb_prune_ratio", "ratio"},
      {"assign.bnb_states_per_s", "1/s"},
      {"assign.bnb_par_speedup", "x"},
      {"assign.bnb_par_speedup.conv_filter", "x"},
      {"assign.bnb_par_speedup.cavity_detection", "x"},
      {"assign.bnb_par_speedup.adpcm_coder", "x"},
      {"assign.bnb_par_speedup.motion_estimation", "x"},
      {"assign.stealing_over_static", "x"},
      {"assign.stealing_over_static.conv_filter", "x"},
      {"assign.stealing_over_static.cavity_detection", "x"},
      {"assign.stealing_over_static.adpcm_coder", "x"},
      {"assign.stealing_over_static.motion_estimation", "x"},
      {"assign.static1_speedup", "x"},
      {"assign.static1_speedup.conv_filter", "x"},
      {"assign.static1_speedup.cavity_detection", "x"},
      {"assign.static1_speedup.adpcm_coder", "x"},
      {"assign.static1_speedup.motion_estimation", "x"},
      {"assign.anytime_gap", "fraction"},
      {"serve.accept_share", "fraction"},
      {"serve.exec_share", "fraction"},
      {"serve.warm_share", "fraction"},
      {"serve.late_p99_periods", "period"},
      {"serve.jobs_failed", "count"},
      {"serve.cache_hits", "count"},
      {"serve.cache_misses", "count"},
      {"serve.bytes_sent", "bytes"},
      {"check.count_mismatches", "count"},
      {"obs.tracing_overhead_pct", "%"},
  };
  return metrics;
}

}  // namespace perfbench
