// Fidelity pin: the four reference points (out-of-box, MHLA, MHLA+TE,
// ideal) of every registry application on the default platform with the
// production greedy flow, as the Figure 2 and Figure 3 benches print them.
// A change to the search, the time extension or the simulator that moves
// any stored total beyond relative 1e-12 changes the reproduced figures:
// it fails here and must be explained, not re-recorded silently.

#include <gtest/gtest.h>

#include <iterator>

#include "core/pipeline.h"
#include "helpers.h"

namespace mhla {
namespace {

/// Total cycles and energy of one simulated point.
struct PinnedPoint {
  double cycles;
  double energy_nj;
};

/// The four points of one application, in FourPoint order.
struct PinnedApp {
  const char* app;
  PinnedPoint points[4];
};

const PinnedApp kPinned[] = {
    {"motion_estimation",
     {{308667744, 58808653.200000003},
      {30777618, 3946788.5223985584},
      {29407494, 3946788.5223985584},
      {29374983, 3946788.5223985584}}},
    {"qsdpcm",
     {{8629236, 1664269.2},
      {948687, 590439.71563697921},
      {885039, 590439.71563697921},
      {827739, 590439.71563697921}}},
    {"mpeg2_encoder",
     {{368716392, 70316136},
      {37930880, 6868289.8532348797},
      {35782976, 6868289.8532348797},
      {35485956, 6868289.8532348797}}},
    {"cavity_detection",
     {{45717820, 9038934.4000000004},
      {10477984, 2700962.3888752521},
      {3341088, 2700962.3888752521},
      {3207980, 2700962.3888752521}}},
    {"jpeg_compress",
     {{12386304, 2437939.2000000002},
      {1769660, 687880.06400000001},
      {1491132, 687880.06400000001},
      {1179648, 687880.06400000001}}},
    {"wavelet",
     {{8439808, 1687961.6000000001},
      {2329496, 983315.36440285319},
      {1141392, 983315.36440285319},
      {730368, 983315.36440285319}}},
    {"conv_filter",
     {{137101312, 26791116.800000001},
      {14859540, 2638094.6613851124},
      {10272020, 2638094.6613851124},
      {10092544, 2638094.6613851124}}},
    {"adpcm_coder",
     {{5537792, 1074790.3999999999},
      {671164, 416897.17921629403},
      {614332, 416897.17921629403},
      {557056, 416897.17921629403}}},
    {"fft_filter",
     {{149815296, 30277632},
      {29304696, 5525562.1602512319},
      {29237240, 5525562.1602512319},
      {29163520, 5525562.1602512319}}},
};

void expect_pinned(const sim::SimResult& point, const PinnedPoint& pinned, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_NEAR(point.total_cycles(), pinned.cycles, 1e-12 * pinned.cycles);
  EXPECT_NEAR(point.energy_nj, pinned.energy_nj, 1e-12 * pinned.energy_nj);
}

TEST(Fidelity, FourPointsMatchRecordedValuesOnAllNineApps) {
  ASSERT_EQ(std::size(kPinned), apps::all_apps().size());
  for (const PinnedApp& pinned : kPinned) {
    SCOPED_TRACE(pinned.app);
    core::PipelineResult run =
        core::Pipeline(core::PipelineConfig{}).run(apps::build_app(pinned.app));
    expect_pinned(run.points.out_of_box, pinned.points[0], "out-of-box");
    expect_pinned(run.points.mhla, pinned.points[1], "MHLA");
    expect_pinned(run.points.mhla_te, pinned.points[2], "MHLA+TE");
    expect_pinned(run.points.ideal, pinned.points[3], "ideal");
  }
}

}  // namespace
}  // namespace mhla
