// serve_mix: an in-process serve::Server on loopback with kServeWorkers
// job workers, driven over kServeConnections client connections.  The
// open-loop phase sends submits at a fixed offered rate and times each from
// its due time; a fixed, seeded share repeats a cell served at least
// kRepeatLag earlier (a ConcurrentResultCache read), the rest are unseen
// cells (parse + analyze + pipeline + cache write on a worker).  A closed-
// loop phase with the same mix then measures capacity.  The only workload
// that reaches framing, protocol, the job queue and the concurrent cache.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "core/json.h"
#include "core/pipeline.h"
#include "harness.h"
#include "ir/serialize.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace perfbench {

namespace {

/// Open-loop submits per second: about a seventeenth of the closed-loop
/// capacity measured on the reference host (median 5220/s), so the two
/// workers are mostly idle and the latency is service time, not queueing.
constexpr double kOfferedRate = 300.0;
/// Share of submits repeating a served cell.  No traffic trace exists to
/// take it from; 30% keeps the median on the cold path while every
/// sub-window still carries hundreds of cache reads.
constexpr double kWarmShare = 0.3;
constexpr double kRepeatLag = 0.5;      ///< seconds between a cell's first submit and a repeat
constexpr std::size_t kServeRandomPrograms = 6;
constexpr std::size_t kWarmupSubmits = 200;
constexpr double kDrainSeconds = 20.0;  ///< open-loop grace for replies after the last send
/// Untraced runs split the window: kOpenShare goes to open-loop sub-windows
/// of kOpenSubSeconds (600 submits each, so their resolvable tail is p95),
/// the rest to kClosedSubWindows closed-loop capacity measurements.
constexpr double kOpenShare = 0.8;
constexpr double kOpenSubSeconds = 2.0;
constexpr int kClosedSubWindows = 4;
constexpr std::size_t kClosedDepth = 8;  ///< submits in flight per connection

/// L1 sizes are drawn from a fine grid so nearly every unseen cell is new.
constexpr std::int64_t kL1Min = 512, kL1Step = 32, kL1Steps = 4096;
const std::vector<std::int64_t> kL2Sizes = {32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024};

struct Cell {
  std::uint32_t program = 0;
  std::int64_t l1 = 0;
  std::int64_t l2 = 0;

  bool operator<(const Cell& o) const {
    return std::tie(program, l1, l2) < std::tie(o.program, o.l1, o.l2);
  }
};

mhla::core::PipelineConfig cell_config(const Cell& cell) {
  mhla::core::PipelineConfig config;
  config.platform.l1_bytes = cell.l1;
  config.platform.l2_bytes = cell.l2;
  config.num_threads = 1;
  return config;
}

/// One submit's life as the client saw it.
struct Record {
  std::size_t cell = 0;
  std::uint32_t program = 0;
  std::uint64_t due_ns = 0, sent_ns = 0, accepted_ns = 0, done_ns = 0;
  bool done = false;
  bool from_cache = false;
  std::string state, status, error;
  double cycles = 0.0, energy_nj = 0.0;
};

/// Seeded cell stream: unseen cells, or with probability kWarmShare a
/// repeat of an unseen cell submitted at least `lag` submits earlier.  Draw
/// a cell only when it is sent, so that every cell in `submitted` was sent.
class CellStream {
 public:
  CellStream(std::uint64_t seed, std::size_t programs) : rng_(seed), programs_(programs) {}

  std::size_t next(std::vector<Cell>& cells, std::vector<std::size_t>& submitted, std::size_t lag) {
    std::size_t eligible = submitted.size() > lag ? submitted.size() - lag : 0;
    if (eligible > 0 && static_cast<double>(rng_.below(1000)) < kWarmShare * 1000.0) {
      std::size_t cell = submitted[rng_.below(eligible)];
      submitted.push_back(cell);
      return cell;
    }
    // Rejection sampling stays cheap while at most half the space is used.
    if (2 * seen_.size() >= programs_ * kL2Sizes.size() * static_cast<std::size_t>(kL1Steps)) {
      throw std::runtime_error("serve cell space exhausted: run a shorter window");
    }
    for (;;) {
      Cell cell{static_cast<std::uint32_t>(rng_.below(programs_)),
                kL1Min + kL1Step * static_cast<std::int64_t>(rng_.below(kL1Steps)),
                kL2Sizes[rng_.below(kL2Sizes.size())]};
      if (!seen_.insert(cell).second) continue;
      cells.push_back(cell);
      submitted.push_back(cells.size() - 1);
      return cells.size() - 1;
    }
  }

 private:
  Rng rng_;
  std::size_t programs_;
  std::set<Cell> seen_;
};

/// One client connection: a socket, its line reader, and the FIFO of
/// submits awaiting their `accepted` event (the server acknowledges the
/// requests of one connection in order).
struct Connection {
  mhla::serve::Socket socket;
  mhla::serve::LineReader reader;
  std::mutex mu;
  std::deque<std::size_t> awaiting;

  explicit Connection(int port)
      : socket(mhla::serve::connect_to("127.0.0.1", port)), reader(socket) {}
};

/// Apply one reply line to the records; returns the record it finished
/// (terminal `done` or `error`), or SIZE_MAX.
std::size_t apply_event(const std::string& line, Connection& conn,
                        std::map<std::uint64_t, std::size_t>& jobs, std::vector<Record>& records) {
  mhla::core::Json event = mhla::core::Json::parse(line);
  const std::string& kind = event.at("event").string();
  std::uint64_t now = now_ns();
  auto pop = [&] {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.awaiting.empty()) throw std::runtime_error("reply to no pending submit");
    std::size_t r = conn.awaiting.front();
    conn.awaiting.pop_front();
    return r;
  };
  if (kind == "accepted") {
    std::size_t r = pop();
    records[r].accepted_ns = now;
    jobs[static_cast<std::uint64_t>(event.at("job").integer())] = r;
    return SIZE_MAX;
  }
  if (kind == "error") {
    std::size_t r = pop();
    records[r].done_ns = now;
    records[r].done = true;
    records[r].error = event.at("message").string();
    return r;
  }
  if (kind != "done") return SIZE_MAX;
  auto it = jobs.find(static_cast<std::uint64_t>(event.at("job").integer()));
  if (it == jobs.end()) throw std::runtime_error("done event for an unknown job");
  Record& rec = records[it->second];
  jobs.erase(it);
  rec.done_ns = now;
  rec.done = true;
  rec.state = event.at("state").string();
  if (const mhla::core::Json* status = event.find("status")) rec.status = status->string();
  if (const mhla::core::Json* v = event.find("cycles")) rec.cycles = v->number();
  if (const mhla::core::Json* v = event.find("energy_nj")) rec.energy_nj = v->number();
  if (const mhla::core::Json* v = event.find("from_cache")) rec.from_cache = v->boolean();
  if (const mhla::core::Json* v = event.find("message")) rec.error = v->string();
  return static_cast<std::size_t>(&rec - records.data());
}

/// Counters of the server's `metrics` verb, read over a connection.
struct ServerCounters {
  double jobs_failed = 0, hits = 0, misses = 0, bytes_sent = 0;
};

ServerCounters query_metrics(Connection& conn) {
  mhla::serve::Request request;
  request.command = mhla::serve::Command::Metrics;
  if (!mhla::serve::write_line(conn.socket, mhla::serve::to_json(request))) {
    throw std::runtime_error("metrics request: connection closed");
  }
  std::string line;
  while (conn.reader.read_line(line)) {
    mhla::core::Json event = mhla::core::Json::parse(line);
    if (event.at("event").string() != "metrics") continue;
    ServerCounters c;
    c.jobs_failed = event.at("jobs_failed").number();
    c.hits = event.at("cache").at("hits").number();
    c.misses = event.at("cache").at("misses").number();
    c.bytes_sent = event.at("bytes_sent").number();
    return c;
  }
  throw std::runtime_error("metrics request: connection closed");
}

}  // namespace

Result run_serve_mix(const Options& options) {
  Result result;
  std::vector<NamedProgram> programs;
  std::vector<Cell> cells;          ///< every unseen cell, in first-submit order
  std::unique_ptr<mhla::serve::Server> server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<CellStream> stream;
  std::vector<std::size_t> submitted;  ///< cell of every submit so far

  auto submit_line = [&](std::size_t cell) {
    const Cell& c = cells[cell];
    mhla::serve::Request request;
    request.command = mhla::serve::Command::Submit;
    request.program_text = programs[c.program].text;
    request.config = cell_config(c);
    request.has_config = true;
    return mhla::serve::to_json(request);
  };

  // Closed-loop submit of one cell on one connection; fills `rec`.
  auto submit_and_wait = [&](Connection& conn, std::size_t cell, std::vector<Record>& records,
                             std::size_t r) {
    std::map<std::uint64_t, std::size_t> jobs;
    records[r].cell = cell;
    records[r].due_ns = records[r].sent_ns = now_ns();
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.awaiting.push_back(r);
    }
    if (!mhla::serve::write_line(conn.socket, submit_line(cell))) {
      throw std::runtime_error("submit: connection closed");
    }
    std::string line;
    while (conn.reader.read_line(line)) {
      if (apply_event(line, conn, jobs, records) == r) return;
    }
    throw std::runtime_error("submit: connection closed before done");
  };

  double setup_s = timed_setups([&] {
    conns.clear();
    server.reset();
    programs = registry_programs();
    for (NamedProgram& p : random_programs(options.seed, 4, kServeRandomPrograms)) {
      programs.push_back(std::move(p));
    }
    cells.clear();
    submitted.clear();
    stream = std::make_unique<CellStream>(options.seed, programs.size());
    mhla::serve::ServerConfig config;
    config.workers = kServeWorkers;
    server = std::make_unique<mhla::serve::Server>(config);
    for (int c = 0; c < kServeConnections; ++c) {
      conns.push_back(std::make_unique<Connection>(server->port()));
    }
    // Warm-up: closed-loop submits of fresh cells on every connection.
    std::vector<Record> warmup(kWarmupSubmits);
    for (std::size_t i = 0; i < kWarmupSubmits; ++i) {
      submit_and_wait(*conns[i % conns.size()], stream->next(cells, submitted, SIZE_MAX), warmup,
                      i);
    }
  });
  submitted.clear();  // warm-up cells are never repeated

  ServerCounters before = query_metrics(*conns[0]);
  SpanLog log;

  // ---- open loop --------------------------------------------------------
  auto open_loop = [&](double seconds, bool traced, std::vector<Record>& records) {
    log.enable(traced);
    const auto n = static_cast<std::size_t>(seconds * kOfferedRate);
    const auto lag = static_cast<std::size_t>(kRepeatLag * kOfferedRate);
    records.assign(n, Record{});
    std::atomic<std::size_t> finished{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::vector<std::thread> readers;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      std::size_t expected = n / conns.size() + (c < n % conns.size() ? 1 : 0);
      readers.emplace_back([&, c, expected] {
        Connection& conn = *conns[c];
        std::map<std::uint64_t, std::size_t> jobs;
        std::string line;
        std::size_t got = 0;
        try {
          while (got < expected && conn.reader.read_line(line)) {
            std::size_t r = apply_event(line, conn, jobs, records);
            if (r == SIZE_MAX) continue;
            ++got;
            if (traced) {
              const Record& rec = records[r];
              std::uint32_t row = rec.program;
              log.add("request", row, r, rec.due_ns, rec.done_ns);
              log.add("harness", row, r, rec.due_ns, rec.sent_ns);
              log.add("serve.accept", row, r, rec.sent_ns, rec.accepted_ns);
              log.add("serve.exec", row, r, rec.accepted_ns, rec.done_ns);
            }
            if (finished.fetch_add(1) + 1 == n) {
              std::lock_guard<std::mutex> lock(done_mu);
              done_cv.notify_all();
            }
          }
        } catch (const std::exception& error) {
          std::lock_guard<std::mutex> lock(done_mu);
          result.fail(std::string("open-loop reader: ") + error.what());
        }
      });
    }
    std::uint64_t start = now_ns() + 1000000;  // first submit due in 1 ms
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t cell = stream->next(cells, submitted, lag);
      std::string line = submit_line(cell);
      Record& rec = records[i];
      rec.cell = cell;
      rec.program = cells[cell].program;
      rec.due_ns = start + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / kOfferedRate);
      while (now_ns() < rec.due_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(rec.due_ns - now_ns()));
      }
      Connection& conn = *conns[i % conns.size()];
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.awaiting.push_back(i);
      rec.sent_ns = now_ns();
      if (!mhla::serve::write_line(conn.socket, line)) break;
    }
    {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait_for(lock, std::chrono::duration<double>(kDrainSeconds),
                       [&] { return finished.load() == n; });
    }
    if (finished.load() != n) {
      // A stuck server must not hang the benchmark: unblock the readers.
      for (auto& conn : conns) conn->socket.shutdown_both();
    }
    for (std::thread& t : readers) t.join();
    if (finished.load() != n) {
      throw std::runtime_error("open loop: " + std::to_string(n - finished.load()) +
                               " submits got no reply within the drain time");
    }
  };

  // ---- closed loop ------------------------------------------------------
  // Each connection keeps kClosedDepth submits in flight and sends the next
  // one only when one finishes, so the two workers stay saturated and the
  // phase measures the server's capacity, not one round trip's latency.
  // Cells come from the same seeded stream as the open loop's, drawn as
  // they are sent, so the phase runs the same warm share.
  auto closed_loop = [&](double seconds, std::vector<Record>& records) {
    const auto lag = static_cast<std::size_t>(kRepeatLag * kOfferedRate);
    std::mutex stream_mu;  // guards stream, cells, submitted and result
    std::vector<std::vector<Record>> conn_records(conns.size());
    std::atomic<std::size_t> completed{0};
    std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      clients.emplace_back([&, c] {
        Connection& conn = *conns[c];
        std::vector<Record>& mine = conn_records[c];
        std::map<std::uint64_t, std::size_t> jobs;
        std::size_t in_flight = 0;
        auto send_next = [&] {
          Record rec;
          std::string line;
          {
            std::lock_guard<std::mutex> lock(stream_mu);
            rec.cell = stream->next(cells, submitted, lag);
            rec.program = cells[rec.cell].program;
            line = submit_line(rec.cell);
          }
          mine.push_back(std::move(rec));
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            conn.awaiting.push_back(mine.size() - 1);
          }
          mine.back().due_ns = mine.back().sent_ns = now_ns();
          if (!mhla::serve::write_line(conn.socket, line)) {
            throw std::runtime_error("submit: connection closed");
          }
          ++in_flight;
        };
        try {
          while (in_flight < kClosedDepth) send_next();
          std::string line;
          while (in_flight > 0 && conn.reader.read_line(line)) {
            if (apply_event(line, conn, jobs, mine) == SIZE_MAX) continue;
            --in_flight;
            if (now_ns() < deadline) {
              completed.fetch_add(1);
              send_next();
            }
          }
          if (in_flight > 0) throw std::runtime_error("connection closed with submits in flight");
        } catch (const std::exception& error) {
          std::lock_guard<std::mutex> lock(stream_mu);
          result.fail(std::string("closed-loop client: ") + error.what());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    records.clear();
    for (std::vector<Record>& mine : conn_records) {
      for (Record& rec : mine) records.push_back(std::move(rec));
    }
    return static_cast<double>(completed.load()) / seconds;
  };

  // Every phase's records, for the output checks; the figures come from the
  // best open-loop sub-window (untraced runs) or the traced phase.
  std::vector<std::vector<Record>> phases;
  auto open_figures = [&](double seconds, bool traced) {
    phases.emplace_back();
    open_loop(seconds, traced, phases.back());
    std::vector<double> latency;
    for (const Record& rec : phases.back()) latency.push_back(ms_between(rec.due_ns, rec.done_ns));
    return WindowFigures{median(latency), percentile(latency, resolvable_tail(latency.size())),
                         0.0};
  };
  auto best_capacity = [&](double seconds) {
    double capacity = 0.0;
    for (int i = 0; i < kClosedSubWindows; ++i) {
      phases.emplace_back();
      capacity = std::max(capacity, closed_loop(seconds / kClosedSubWindows, phases.back()));
    }
    return capacity;
  };
  WindowFigures best, untraced;
  std::size_t traced_phase = 0;
  if (!options.trace) {
    // Lowest p50 and lowest tail over the open-loop sub-windows (see
    // CellSamples for why the best sub-window).
    auto count = std::max<long>(1, std::lround(options.seconds * kOpenShare / kOpenSubSeconds));
    for (long i = 0; i < count; ++i) {
      WindowFigures figures = open_figures(options.seconds * kOpenShare / count, false);
      best.latency_ms = i == 0 ? figures.latency_ms : std::min(best.latency_ms, figures.latency_ms);
      best.tail_ms = i == 0 ? figures.tail_ms : std::min(best.tail_ms, figures.tail_ms);
    }
    best.throughput_per_s = best_capacity(options.seconds * (1.0 - kOpenShare));
  } else {
    untraced = open_figures(options.seconds / 3.0, false);
    best = open_figures(options.seconds / 3.0, true);
    traced_phase = phases.size() - 1;
    best_capacity(options.seconds / 3.0);
  }
  ServerCounters after = query_metrics(*conns[0]);
  conns.clear();
  server.reset();

  // ---- output checks: every reply against an in-process Pipeline::run ----
  std::map<std::size_t, std::pair<double, double>> reference;
  auto check = [&](const Record& rec) {
    ++result.attempted;
    const std::string& name = programs[cells[rec.cell].program].name;
    if (!rec.done || !rec.error.empty() || rec.state != "done") {
      result.fail(name + ": submit " + (rec.error.empty() ? rec.state : rec.error));
      return;
    }
    if (rec.status != "optimal" && rec.status != "feasible") {
      result.fail(name + ": status " + rec.status);
      return;
    }
    if (!finite_nonneg(rec.cycles) || !finite_nonneg(rec.energy_nj)) {
      result.fail(name + ": non-finite or negative cycles/energy");
      return;
    }
    auto it = reference.find(rec.cell);
    if (it == reference.end()) {
      const Cell& cell = cells[rec.cell];
      mhla::core::PipelineConfig config = cell_config(cell);
      mhla::core::PipelineResult run =
          mhla::core::Pipeline(config).run(mhla::ir::parse_program(programs[cell.program].text));
      const mhla::sim::SimResult& point = config.dma.present ? run.points.mhla_te : run.points.mhla;
      it = reference.emplace(rec.cell, std::make_pair(point.total_cycles(), point.energy_nj)).first;
    }
    if (rec.cycles != it->second.first || rec.energy_nj != it->second.second) {
      result.fail(name + ": served result differs from an in-process Pipeline::run");
    }
  };
  for (const std::vector<Record>& phase : phases) {
    for (const Record& rec : phase) check(rec);
  }

  if (!options.trace) {
    report_end_to_end(result, best, setup_s);
    return result;
  }

  std::vector<double> late;
  std::size_t warm = 0;
  const std::vector<Record>& traced_open = phases[traced_phase];
  for (const Record& rec : traced_open) {
    late.push_back(ms_between(rec.due_ns, rec.sent_ns));
    if (rec.from_cache) ++warm;
  }
  std::vector<std::string> names;
  for (const NamedProgram& p : programs) names.push_back(p.name);
  std::map<std::string, double> shares = print_layer_table(
      "serve_mix", log.self_times(), names, {"harness", "serve.accept", "serve.exec"});
  if (!options.trace_dir.empty()) {
    log.write_chrome_trace(options.trace_dir + "/serve_mix.json", names);
  }
  result.metric("serve.share", shares["serve.accept"] + shares["serve.exec"], "fraction");
  result.metric("harness.share", shares["harness"], "fraction");
  result.metric("serve.accept_share", shares["serve.accept"], "fraction");
  result.metric("serve.exec_share", shares["serve.exec"], "fraction");
  result.metric("serve.warm_share",
                static_cast<double>(warm) / static_cast<double>(traced_open.size()), "fraction");
  result.metric("serve.late_p99_periods",
                percentile(late, resolvable_tail(late.size())) * 1e-3 * kOfferedRate, "period");
  result.metric("serve.jobs_failed", after.jobs_failed - before.jobs_failed, "count");
  result.metric("serve.cache_hits", after.hits - before.hits, "count");
  result.metric("serve.cache_misses", after.misses - before.misses, "count");
  result.metric("serve.bytes_sent", after.bytes_sent - before.bytes_sent, "bytes");
  result.metric("obs.tracing_overhead_pct",
                100.0 * (best.latency_ms / untraced.latency_ms - 1.0), "%");
  return result;
}

}  // namespace perfbench
