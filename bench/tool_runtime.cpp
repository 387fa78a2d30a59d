// The paper's tooling claim: the prototype "has allowed us to do fast,
// accurate and automatic exploration of nine real-life applications".
//
// This bench measures the tool itself: per-app analysis and search times,
// greedy search effort (cost-model evaluations), and greedy-vs-exhaustive
// quality on a small instance where the oracle is tractable.

#include "bench_common.h"

#include "assign/exhaustive.h"
#include "ir/builder.h"

namespace {

using namespace mhla;
using ir::av;

void print_tool_stats() {
  bench::print_header("Tool runtime and search effort",
                      "fast, accurate and automatic exploration of nine applications");
  core::Table table({"application", "sites", "copy cands", "greedy moves", "cost evals"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
    auto ctx = ws->context();
    assign::SearchResult greedy = bench::greedy_step1(ctx);
    table.add_row({info.name, std::to_string(ws->sites().size()),
                   std::to_string(ws->reuse().candidates().size()),
                   std::to_string(greedy.moves.size()), std::to_string(greedy.evaluations)});
  }
  std::cout << table.str() << "\n";

  // Greedy vs exhaustive oracle on a small instance.
  ir::ProgramBuilder pb("oracle");
  pb.array("a", {16}, 4).input();
  pb.begin_loop("r", 0, 8);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  pb.end_loop();
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = core::make_workspace(pb.finish(), platform, {});
  auto ctx = ws->context();
  assign::GreedyResult greedy = assign::greedy_assign(ctx);
  assign::ExhaustiveResult oracle = assign::exhaustive_assign(ctx);
  std::cout << "oracle check (small instance): greedy scalar = "
            << core::Table::num(greedy.final_scalar, 4)
            << ", exhaustive scalar = " << core::Table::num(oracle.scalar, 4) << " over "
            << oracle.states_explored << " states — gap = "
            << core::Table::num(100.0 * (greedy.final_scalar - oracle.scalar) /
                                    (oracle.scalar > 0 ? oracle.scalar : 1.0),
                                2)
            << " %\n\n";
}

void BM_ProgramAnalysis(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  ir::Program program = info.build();
  for (auto _ : state) {
    auto sites = analysis::collect_sites(program);
    benchmark::DoNotOptimize(analysis::ReuseAnalysis::run(program, sites));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_ProgramAnalysis)->DenseRange(0, 8);

void BM_WorkspaceConstruction(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::make_workspace(info.build(), bench::default_platform(), mem::DmaEngine{}));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_WorkspaceConstruction)->DenseRange(0, 8);

void BM_ExhaustiveOracle(benchmark::State& state) {
  ir::ProgramBuilder pb("oracle");
  pb.array("a", {16}, 4).input();
  pb.begin_loop("r", 0, 8);
  pb.begin_loop("i", 0, 16);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  pb.end_loop();
  mem::PlatformConfig platform;
  platform.l1_bytes = 256;
  platform.l2_bytes = 0;
  auto ws = core::make_workspace(pb.finish(), platform, {});
  auto ctx = ws->context();
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign::exhaustive_assign(ctx));
  }
}
BENCHMARK(BM_ExhaustiveOracle);

}  // namespace

int main(int argc, char** argv) {
  print_tool_stats();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
