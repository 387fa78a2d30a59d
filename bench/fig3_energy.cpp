// Figure 3 of the paper: normalized memory-hierarchy energy of the nine
// applications, out-of-the-box vs MHLA.
//
// Paper claims: optimum allocation and assignment reduces energy up to 70 %;
// the TE step leaves energy unchanged because the model only counts
// accesses to the memory hierarchy.

#include "bench_common.h"

namespace {

using namespace mhla;

void print_figure3() {
  bench::print_header("Figure 3 (energy, out-of-box = 100 %)",
                      "MHLA reduces energy up to 70 %; TE leaves energy unchanged");
  core::Table table(
      {"application", "out-of-box", "MHLA", "MHLA+TE", "reduction", "TE delta"});
  double best = 0.0;
  for (const apps::AppInfo& info : apps::all_apps()) {
    core::PipelineResult run = bench::run_app(info);
    const sim::FourPoint& fp = run.points;
    double base = fp.out_of_box.energy_nj;
    double mhla = sim::percent_of(fp.mhla.energy_nj, base);
    double te = sim::percent_of(fp.mhla_te.energy_nj, base);
    best = std::max(best, 100.0 - mhla);
    table.add_row({info.name, "100.0", core::Table::num(mhla), core::Table::num(te),
                   core::Table::num(100.0 - mhla), core::Table::num(te - mhla)});
  }
  std::cout << table.str() << "best energy reduction: " << core::Table::num(best)
            << " % (paper: up to 70 %)\n"
            << "('TE delta' must be 0.0 everywhere: step 2 never changes energy)\n\n";
}

void BM_EnergyEvaluation(benchmark::State& state) {
  const apps::AppInfo& info = apps::all_apps()[static_cast<std::size_t>(state.range(0))];
  auto ws = core::make_workspace(info.build(), bench::default_platform(), {});
  auto ctx = ws->context();
  assign::Assignment a = bench::greedy_step1(ctx).assignment;
  for (auto _ : state) {
    sim::AccessTally tally = sim::tally_accesses(ctx, a);
    benchmark::DoNotOptimize(sim::tally_energy_nj(ctx.hierarchy, tally));
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_EnergyEvaluation)->DenseRange(0, 8);

}  // namespace

int main(int argc, char** argv) {
  print_figure3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
