#pragma once

// Shared fixtures and builders for the MHLA test suite.

#include <cstdlib>
#include <memory>
#include <tuple>

#include "apps/registry.h"
#include "core/driver.h"
#include "ir/builder.h"

namespace mhla::testing {

using ir::ac;
using ir::av;

/// A tiny single-nest streaming program: one big input array read row by
/// row with a small reused table.  Small enough for exhaustive search.
inline ir::Program tiny_stream_program() {
  ir::ProgramBuilder pb("tiny_stream");
  pb.array("big", {64, 64}, 4).input();
  pb.array("tab", {16}, 4).input();
  pb.array("out", {64}, 4).output();
  pb.begin_loop("i", 0, 64);
  pb.begin_loop("j", 0, 64);
  pb.stmt("work", 2)
      .read("big", {av("i"), av("j")})
      .read("tab", {av("j", 0) + ac(0)});  // constant subscript: tab[0]
  pb.end_loop();
  pb.stmt("emit", 1).write("out", {av("i")});
  pb.end_loop();
  return pb.finish();
}

/// A two-nest producer/consumer program exercising lifetimes & dependences.
inline ir::Program producer_consumer_program() {
  ir::ProgramBuilder pb("prod_cons");
  pb.array("src", {128}, 4).input();
  pb.array("mid", {128}, 4);
  pb.array("dst", {128}, 4).output();
  pb.begin_loop("i", 0, 128);
  pb.stmt("produce", 1).read("src", {av("i")}).write("mid", {av("i")});
  pb.end_loop();
  pb.begin_loop("j", 0, 128);
  pb.stmt("consume", 1).read("mid", {av("j")}).write("dst", {av("j")});
  pb.end_loop();
  return pb.finish();
}

/// A blocked program with a clear two-level reuse chain: block copies under
/// (bi) reused across an inner sweep.
inline ir::Program blocked_reuse_program() {
  ir::ProgramBuilder pb("blocked");
  pb.array("data", {32, 64}, 4).input();
  pb.array("acc", {32}, 4).output();
  pb.begin_loop("bi", 0, 32);
  pb.begin_loop("rep", 0, 10);
  pb.begin_loop("k", 0, 64);
  pb.stmt("use", 1).read("data", {av("bi"), av("k")});
  pb.end_loop();
  pb.end_loop();
  pb.stmt("save", 1).write("acc", {av("bi")});
  pb.end_loop();
  return pb.finish();
}

/// Default test platform: 1 KiB L1 + 16 KiB L2 over SDRAM.
inline mem::PlatformConfig small_platform() {
  mem::PlatformConfig platform;
  platform.l1_bytes = 1024;
  platform.l2_bytes = 16 * 1024;
  return platform;
}

/// Workspace over any program with the small test platform.
inline std::unique_ptr<core::Workspace> make_ws(ir::Program program,
                                                mem::PlatformConfig platform = small_platform(),
                                                mem::DmaEngine dma = {}) {
  return core::make_workspace(std::move(program), platform, dma);
}

/// Size of the seeded random-program corpus the differential and
/// consistency suites run over: MHLA_DIFF_SEEDS (default 50).  The
/// generator is seeded, so seed k names the same program in every suite and
/// build.
inline int corpus_seeds() {
  if (const char* env = std::getenv("MHLA_DIFF_SEEDS")) {
    int seeds = std::atoi(env);
    if (seeds > 0) return seeds;
  }
  return 50;
}

/// The paper's two-step flow built from its parts, independently of
/// `core::evaluate_cell`: the greedy search with `target`'s weights, then
/// the four reference simulations of the workspace's platform (out-of-box,
/// blocking, time-extended, ideal).
struct ReferenceRun {
  assign::SearchResult step1;
  sim::FourPoint points;
};

inline ReferenceRun reference_run(const core::Workspace& ws,
                                  assign::Target target = assign::Target::Balanced,
                                  const te::TeOptions& te_options = {}) {
  assign::AssignContext ctx = ws.context();
  assign::SearchOptions greedy;
  std::tie(greedy.energy_weight, greedy.time_weight) = assign::target_weights(target);
  ReferenceRun run;
  run.step1 = assign::greedy_assign(ctx, greedy);
  const assign::Assignment& step1 = run.step1.assignment;
  run.points.out_of_box =
      sim::simulate(ctx, assign::out_of_box(ctx), {te::TransferMode::Blocking, {}});
  run.points.mhla = sim::simulate(ctx, step1, {te::TransferMode::Blocking, {}});
  run.points.mhla_te = sim::simulate(ctx, step1, {te::TransferMode::TimeExtended, te_options});
  run.points.ideal = sim::simulate(ctx, step1, {te::TransferMode::Ideal, {}});
  return run;
}

/// Binary-wide heap-allocation counter (tests/helpers_alloc.cpp replaces the
/// global operator new/delete with counting forms).  Monotonic count of
/// successful allocations since process start; sample it before and after a
/// region to assert the region's allocation count — the zero-steady-state
/// regression suite does exactly that around engine/tracker moves.
long heap_allocations();

}  // namespace mhla::testing
