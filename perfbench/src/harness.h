#pragma once

// Shared pieces of the layer-isolating benchmark: the seeded generator,
// sample statistics, the input corpus, the in-memory span log behind the
// traced mode, and the result record every workload fills.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Fixed parallelism of every workload.  Never 0 / "hardware": every
/// machine runs the same load.  4 = the core count the benchmark is tuned
/// on; no workload starts more benchmark threads or connections than this.
inline constexpr unsigned kPoolThreads = 4;   ///< explorer pool, bnb-par workers
inline constexpr unsigned kServeWorkers = 2;  ///< serve job workers
inline constexpr int kServeConnections = 2;

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr int kSetupRepeats = 11;

std::uint64_t now_ns();
double ms_between(std::uint64_t start_ns, std::uint64_t end_ns);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// splitmix64: a seed names the same stream on every platform and library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::size_t below(std::size_t n);  ///< uniform in [0, n); n > 0

  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated percentile, p in [0, 100].  Empty input gives 0.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double geomean(const std::vector<double>& values);

/// The highest of p99 / p95 / p90 / p75 / p50 that has at least ten
/// samples beyond it among `n` samples (the tail a sample set resolves).
double resolvable_tail(std::size_t n);

/// Latency samples of a closed loop, kept per input cell (a program, a
/// program at one platform point, or an instance under one strategy).  The
/// loop visits every cell equally often, so per-cell statistics do not
/// depend on where the pooled distribution's modes fall.
///
/// The host's co-tenants slow every core in phases that last seconds, and
/// interference only ever adds time.  So a cell's typical latency is a low
/// percentile (kTypicalPct) of its samples: its cost in the host's quiet
/// moments.  The tail is measured per sub-window, relative to each cell's
/// median there, and the run keeps the lowest sub-window tail.
class CellSamples {
 public:
  static constexpr double kTypicalPct = 10.0;

  /// `tail_pct`: the tail percentile this workload resolves in one
  /// sub-window (at least ten samples beyond it).
  CellSamples(std::size_t cells, double tail_pct)
      : samples_(cells), window_start_(cells, 0), tail_pct_(tail_pct) {}
  void add(std::size_t cell, double ms) {
    samples_[cell].push_back(ms);
    ++count_;
  }
  /// Close the current sub-window and fold its tail into the best one.
  void end_window();
  std::size_t count() const { return count_; }

  /// kTypicalPct percentile of `cell`'s samples (0 if it was never sampled).
  double typical_of(std::size_t cell) const;

  /// Mean over sampled cells of `typical_of`: the expected latency of a
  /// uniformly drawn input.
  double mean_typical() const;

  /// `typical` times the lowest sub-window tail ratio: the tail_pct
  /// percentile of every sample relative to its cell's sub-window median.
  double tail(double typical) const { return typical * best_tail_ratio_; }

 private:
  std::vector<std::vector<double>> samples_;
  std::vector<std::size_t> window_start_;  ///< per cell, first sample of the open sub-window
  double tail_pct_;
  double best_tail_ratio_ = 0.0;
  std::size_t count_ = 0;
};

/// One benchmark input: a named program as .mhla text.  Operations parse
/// the text, so the program reaches the library the way a user's file does.
struct NamedProgram {
  std::string name;
  std::string text;
};

/// The nine registry applications, serialized, in registry order.
std::vector<NamedProgram> registry_programs();

/// `count` seeded gen::random_program inputs for the run seed.  `salt`
/// separates the streams of different workloads.
std::vector<NamedProgram> random_programs(std::uint64_t seed, std::uint64_t salt,
                                          std::size_t count);

/// Span log of the traced mode.  Spans are the benchmark's own, taken
/// around its calls into the library; they carry the layer, the input row
/// (program) and the operation they belong to.  Off, `add` returns at once
/// and callers skip the clock reads.
class SpanLog {
 public:
  struct Span {
    const char* layer;
    std::uint32_t row;
    std::uint64_t op;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  void enable(bool on) { on_ = on; }
  void add(const char* layer, std::uint32_t row, std::uint64_t op, std::uint64_t start_ns,
           std::uint64_t end_ns);

  /// Self time per layer: a span's duration minus the part its direct
  /// children (spans of the same op nested inside it) cover.
  struct SelfTimes {
    std::map<std::string, double> total_ms;                       ///< layer -> ms
    std::map<std::uint32_t, std::map<std::string, double>> rows;  ///< row -> layer -> ms
    std::map<std::uint32_t, std::size_t> row_ops;
  };
  SelfTimes self_times() const;

  /// Chrome trace-event JSON of every span (loadable in Perfetto).
  void write_chrome_trace(const std::string& path, const std::vector<std::string>& rows) const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What a workload run produces.  `metrics` keeps insertion order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages, for stderr
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one failed operation (or a failed output check) with its reason.
  void fail(const std::string& why);

  /// Exact-count check: a work counter (greedy evaluations, serial bnb
  /// states and prunes, explore evaluations and cache hits) that did not
  /// repeat for the same input.  Reported as nondeterminism (stderr and
  /// the `check.count_mismatches` per-layer metric), not as a failed op:
  /// the op's result itself is checked separately.
  void count_mismatch(const std::string& what);
  std::uint64_t count_mismatches = 0;
};

/// Self-time table of a traced run: one row per input program plus the
/// total, one column per layer (share of the row's traced time).  Printed
/// to stdout ahead of the result line.  Returns the total shares.
std::map<std::string, double> print_layer_table(const std::string& workload,
                                                const SpanLog::SelfTimes& self,
                                                const std::vector<std::string>& row_names,
                                                const std::vector<std::string>& layers);

/// End-to-end figures of one run.
struct WindowFigures {
  double latency_ms = 0.0;
  double tail_ms = 0.0;
  double throughput_per_s = 0.0;
};

/// Run `measure(sub_seconds)` for consecutive sub-windows that fill
/// `seconds`; each call measures one sub-window and returns its throughput.
/// Returns the highest throughput (interference only lowers it).  Co-tenant
/// phases differ from core to core, so a single-threaded workload may
/// `rotate_cpus`: sub-window i runs pinned to the i-th allowed CPU in turn.
double run_sub_windows(double seconds, double sub_seconds, bool rotate_cpus,
                       const std::function<double(double)>& measure);

/// Append the end-to-end metrics (all but peak_rss_mb, which main adds).
void report_end_to_end(Result& result, const WindowFigures& figures, double setup_s);

/// Time `setup` kSetupRepeats times and return the median seconds.  Each
/// repetition builds everything from scratch; the last one's state is what
/// the measured window runs on.
double timed_setups(const std::function<void()>& setup);

bool finite_nonneg(double value);

Result run_design_flow(const Options& options);
Result run_explore_frontier(const Options& options);
Result run_exact_search(const Options& options);
Result run_serve_mix(const Options& options);

/// Every per-layer metric, in report order, with its unit.  Each workload
/// reports all of them; a layer the workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
