#ifndef _WIN32

// Pipeline, Explorer, sweep_layer_sizes (with and without a budget that
// never binds) and a served submit all evaluate a design cell through
// core::evaluate_cell, so on one cell they must report the same canonical
// point, bit for bit.

#include <gtest/gtest.h>

#include <string>

#include "apps/registry.h"
#include "core/json.h"
#include "core/pipeline.h"
#include "explore/explorer.h"
#include "explore/sweep.h"
#include "ir/serialize.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace mhla {
namespace {

/// L1 sizes of the two platform points, both without an L2: with one
/// on-chip layer every app stays inside bnb's placement guard and solves
/// to optimality in well under a second.
const std::vector<ir::i64> kL1Points = {128, 256};

struct Point {
  double cycles = 0.0;
  double energy_nj = 0.0;
};

/// One served submit of `program` on `config`, answered cold.
Point served(serve::Socket& socket, serve::LineReader& reader, const ir::Program& program,
             const core::PipelineConfig& config) {
  serve::Request request;
  request.command = serve::Command::Submit;
  request.program_text = ir::serialize(program);
  request.config = config;
  request.has_config = true;
  EXPECT_TRUE(serve::write_line(socket, serve::to_json(request)));
  std::string line;
  while (reader.read_line(line)) {
    core::Json event = core::Json::parse(line);
    const std::string& name = event.at("event").string();
    if (name == "error") ADD_FAILURE() << event.at("message").string();
    if (name != "done") continue;
    EXPECT_EQ(event.at("state").string(), "done");
    EXPECT_FALSE(event.at("from_cache").boolean());
    return {event.at("cycles").number(), event.at("energy_nj").number()};
  }
  ADD_FAILURE() << "server closed the connection";
  return {};
}

TEST(CrossPath, EveryEvaluationPathGivesTheSameCanonicalPoint) {
  serve::Server server({});
  serve::Socket socket = serve::connect_to("127.0.0.1", server.port());
  serve::LineReader reader(socket);

  for (const apps::AppInfo& info : apps::all_apps()) {
    const ir::Program program = info.build();

    xplore::ExplorerConfig explore = xplore::default_explorer();
    explore.strategies = {"greedy", "bnb"};
    explore.l1_axis = kL1Points;
    explore.l2_axis = {0};
    explore.seed_stride = 1;  // the seed wave is the whole lattice
    xplore::ResultCache cache;
    const xplore::ExploreResult explored = xplore::Explorer(explore).run(program, cache);
    ASSERT_EQ(explored.samples.size(), 4u) << info.name;

    for (const std::string strategy : {"greedy", "bnb"}) {
      xplore::SweepConfig sweep;
      sweep.l1_sizes = kL1Points;
      sweep.l2_sizes = {0};
      sweep.pipeline.strategy = strategy;
      const std::vector<xplore::SweepSample> swept = xplore::sweep_layer_sizes(program, sweep);
      ASSERT_EQ(swept.size(), kL1Points.size());
      // A budget that never binds is one more path: it must change nothing.
      sweep.pipeline.search.budget.deadline_seconds = 3600.0;
      const std::vector<xplore::SweepSample> loose = xplore::sweep_layer_sizes(program, sweep);
      ASSERT_EQ(loose.size(), kL1Points.size());

      for (std::size_t p = 0; p < kL1Points.size(); ++p) {
        const std::string where =
            info.name + " " + strategy + " L1 " + std::to_string(kL1Points[p]);
        core::PipelineConfig config;
        config.strategy = strategy;
        config.platform.l1_bytes = kL1Points[p];
        config.platform.l2_bytes = 0;

        const core::PipelineResult run = core::Pipeline(config).run(info.build());
        ASSERT_EQ(run.search.status, strategy == "bnb" ? assign::SearchStatus::Optimal
                                                       : assign::SearchStatus::Feasible)
            << where;
        const sim::SimResult& canonical = run.points.mhla_te;
        double stages = 0.0;
        for (const core::StageTiming& timing : run.timings) stages += timing.seconds;
        EXPECT_EQ(run.total_seconds, stages) << where;

        EXPECT_EQ(swept[p].point.cycles, canonical.total_cycles()) << where;
        EXPECT_EQ(swept[p].point.energy_nj, canonical.energy_nj) << where;
        EXPECT_EQ(swept[p].assignment, run.search.assignment) << where;
        EXPECT_EQ(loose[p].point.cycles, canonical.total_cycles()) << where;
        EXPECT_EQ(loose[p].point.energy_nj, canonical.energy_nj) << where;
        EXPECT_EQ(loose[p].assignment, run.search.assignment) << where;

        bool found = false;
        for (const xplore::ExploreSample& sample : explored.samples) {
          if (sample.cell.strategy != strategy || sample.cell.l1_bytes != kL1Points[p]) continue;
          found = true;
          EXPECT_EQ(sample.point.cycles, canonical.total_cycles()) << where;
          EXPECT_EQ(sample.point.energy_nj, canonical.energy_nj) << where;
        }
        EXPECT_TRUE(found) << where;

        const Point submit = served(socket, reader, program, config);
        EXPECT_EQ(submit.cycles, canonical.total_cycles()) << where;
        EXPECT_EQ(submit.energy_nj, canonical.energy_nj) << where;
      }
    }
  }
}

}  // namespace
}  // namespace mhla

#endif  // _WIN32
