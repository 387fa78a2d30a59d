#include "core/json_report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <locale>
#include <sstream>

#include "assign/search.h"
#include "core/json.h"
#include "core/pipeline.h"
#include "helpers.h"

namespace mhla::core {
namespace {

/// Minimal structural JSON validation: balanced braces/brackets outside of
/// strings, no trailing garbage.
void expect_balanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonEscape, SpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

/// Classic-locale `setprecision` stream formatting: the oracle the JSON
/// number emitters must match byte for byte.
std::string stream_number(double value, int precision) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << std::setprecision(precision) << value;
  return out.str();
}

TEST(JsonNumber, MatchesTheClassicStreamOnAnEdgeCorpus) {
  using limits = std::numeric_limits<double>;
  std::vector<double> corpus = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 123456.789, 1e15, 1e16, 1e17, 1e-5,
      1e-4, 1e300, -1e300, 1e-300, -1e-300, limits::max(), -limits::max(), limits::min(),
      limits::denorm_min(), -limits::denorm_min(), limits::min() / 3.0,
      limits::infinity(), -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN(),
      9007199254740992.0,   // 2^53
      9007199254740993.0,   // 2^53 + 1 (rounds to 2^53)
      9007199254740994.0,   // 2^53 + 2
      18446744073709551616.0,  // 2^64
      123456789012345678.0, 4.9406564584124654e-324, 2.2250738585072014e-308,
      0.30000000000000004, 5e-324, 1.7976931348623157e308};
  for (int i = -20; i <= 20; ++i) corpus.push_back(std::ldexp(1.0, i * 50) * 1.1);
  for (double value : corpus) {
    EXPECT_EQ(json_number(value), stream_number(value, 15)) << stream_number(value, 17);
    EXPECT_EQ(json_number_exact(value), stream_number(value, 17)) << stream_number(value, 17);
  }
}

TEST(JsonReport, SimResultIsWellFormed) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  sim::SimResult result = sim::simulate(ctx, assign::greedy_assign(ctx).assignment);
  std::string json = to_json(result);
  expect_balanced(json);
  EXPECT_NE(json.find("\"total_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_nj\""), std::string::npos);
  EXPECT_NE(json.find("\"layers\""), std::string::npos);
  EXPECT_NE(json.find("\"SDRAM\""), std::string::npos);
  EXPECT_NE(json.find("\"feasible\": true"), std::string::npos);
}

TEST(JsonReport, FourPointIncludesAllBars) {
  auto ws = testing::make_ws(testing::blocked_reuse_program());
  auto ctx = ws->context();
  sim::FourPoint fp = sim::simulate_four_points(ctx, assign::greedy_assign(ctx).assignment);
  std::string json = to_json("demo app", fp);
  expect_balanced(json);
  for (const char* key : {"\"application\"", "\"out_of_box\"", "\"mhla\"", "\"mhla_te\"",
                          "\"ideal\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("demo app"), std::string::npos);
}

TEST(JsonReport, TradeoffPointsArray) {
  std::vector<xplore::TradeoffPoint> points(2);
  points[0].l1_bytes = 1024;
  points[0].cycles = 10.5;
  points[1].l1_bytes = 2048;
  points[1].energy_nj = 3.25;
  std::string json = to_json(points);
  expect_balanced(json);
  EXPECT_NE(json.find("\"l1_bytes\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"l1_bytes\": 2048"), std::string::npos);
  EXPECT_NE(json.find("10.5"), std::string::npos);
  EXPECT_NE(json.find("3.25"), std::string::npos);
}

TEST(JsonReport, EmptyTradeoffArray) {
  std::string json = to_json(std::vector<xplore::TradeoffPoint>{});
  expect_balanced(json);
}

TEST(JsonReport, ExhaustedBudgetAgreesWithStatusWhenTimeExtensionRunsOut) {
  // A probe allowance of exactly the search's own probes lets the search
  // finish, then expires at the first probe of the time extension.  The
  // run is budget-exhausted, though not in the search, and both report
  // keys must say so.
  const ir::Program program = apps::build_app("motion_estimation");
  PipelineConfig config;
  ASSERT_TRUE(config.dma.present);
  const ProgramAnalysis analysis(program);
  RunBudget search_only;  // unlimited: only counts
  PipelineConfig cell = config;
  cell.search.shared_budget = &search_only;
  PipelineResult unbudgeted = evaluate_cell(analysis, cell, PointRequest::canonical(false));
  ASSERT_EQ(unbudgeted.search.status, assign::SearchStatus::Feasible);
  ASSERT_GT(search_only.probes(), 0);

  config.search.budget.max_probes = search_only.probes();
  PipelineResult run = Pipeline(config).run(analysis);
  EXPECT_TRUE(run.points.mhla_te.budget_exhausted);
  EXPECT_EQ(run.search.scalar, unbudgeted.search.scalar) << "the search itself must finish";
  const Json search = Json::parse(to_json("motion_estimation", run)).at("search");
  EXPECT_EQ(search.at("status").string(), "budget_exhausted");
  EXPECT_TRUE(search.at("exhausted_budget").boolean());
}

}  // namespace
}  // namespace mhla::core
