// Figure 2 of the paper: normalized execution time of the nine applications
// under (a) out-of-the-box code, (b) MHLA step 1, (c) MHLA + time
// extensions, (d) the ideal zero-wait-state bound.
//
// Paper claim: step 1 boosts performance 40-60 % vs out-of-the-box for
// specific memory sizes; TE adds up to 33 % more when processing loops can
// hide the block transfers, pushing towards the ideal case.

#include "bench_common.h"

namespace {

using namespace mhla;

void print_figure2() {
  bench::print_header("Figure 2 (performance, out-of-box = 100 %)",
                      "MHLA improves performance up to 60 %; TE boosts further toward ideal");
  core::Table table({"application", "out-of-box", "MHLA", "MHLA+TE", "ideal", "TE gain"});
  for (const apps::AppInfo& info : apps::all_apps()) {
    core::PipelineResult run = bench::run_app(info);
    const sim::FourPoint& fp = run.points;
    double base = fp.out_of_box.total_cycles();
    double mhla = sim::percent_of(fp.mhla.total_cycles(), base);
    double te = sim::percent_of(fp.mhla_te.total_cycles(), base);
    double ideal = sim::percent_of(fp.ideal.total_cycles(), base);
    table.add_row({info.name, "100.0", core::Table::num(mhla), core::Table::num(te),
                   core::Table::num(ideal), core::Table::num(mhla - te)});
  }
  std::cout << table.str()
            << "(columns are % of out-of-box execution time; 'TE gain' is the\n"
               " additional percentage-point improvement of step 2 over step 1)\n\n";
}

void BM_Step1Assignment(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  for (auto _ : state) {
    auto ctx = ws->context();
    benchmark::DoNotOptimize(bench::greedy_step1(ctx));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_Step1Assignment)->DenseRange(0, 8);

void BM_FullTwoStepFlow(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  const core::Pipeline pipeline(core::PipelineConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(ws->analysis()));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_FullTwoStepFlow)->DenseRange(0, 8);

}  // namespace

int main(int argc, char** argv) {
  print_figure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
