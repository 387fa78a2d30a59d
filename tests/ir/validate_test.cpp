#include "ir/validate.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "ir/builder.h"
#include "ir/serialize.h"

namespace mhla::ir {
namespace {

TEST(Validate, CleanProgramHasNoIssues) {
  ProgramBuilder pb("p");
  pb.array("a", {8, 8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.begin_loop("j", 0, 8);
  pb.stmt("s", 1).read("a", {av("i"), av("j")});
  pb.end_loop();
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
  EXPECT_NO_THROW(validate_or_throw(p));
}

TEST(Validate, UndeclaredArray) {
  ProgramBuilder pb("p");
  pb.begin_loop("i", 0, 4);
  pb.stmt("s", 1).read("ghost", {av("i")});
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("undeclared"), std::string::npos);
  EXPECT_THROW(validate_or_throw(p), std::invalid_argument);
}

TEST(Validate, RankMismatch) {
  ProgramBuilder pb("p");
  pb.array("a", {8, 8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});  // rank 1 vs 2
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("rank"), std::string::npos);
}

TEST(Validate, UnboundSubscriptVariable) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("q")});
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("not bound"), std::string::npos);
}

TEST(Validate, SubscriptOverrun) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 9);  // i = 8 overruns
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  Program p = pb.finish();
  auto issues = validate(p);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("outside"), std::string::npos);
}

TEST(Validate, SubscriptUnderrun) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i") - ac(1)});  // i=0 -> -1
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_FALSE(validate(p).empty());
}

TEST(Validate, OffsetLoopBoundsAreRespected) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 1, 8);
  pb.stmt("s", 1).read("a", {av("i") - ac(1)});  // i=1..7 -> 0..6, fine
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, NegativeCoefficientBounds) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i", -1) + ac(7)});  // 7-i in 0..7, fine
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, StridedLoopExtremes) {
  ProgramBuilder pb("p");
  pb.array("a", {16}, 4);
  pb.begin_loop("i", 0, 16, 4);  // i in {0,4,8,12}
  pb.stmt("s", 1).read("a", {av("i") + ac(3)});  // max 15, fine
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_TRUE(validate(p).empty());
}

TEST(Validate, NonPositiveAccessCount) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")}, 0);
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_FALSE(validate(p).empty());
}

TEST(Validate, MultipleIssuesAllReported) {
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 9);
  pb.stmt("s", 1).read("a", {av("i")}).read("ghost", {av("i")});
  pb.end_loop();
  Program p = pb.finish();
  EXPECT_GE(validate(p).size(), 2u);
}

TEST(Validate, AllNineAppsPassValidation) {
  // The app builders call validate_or_throw internally; this double-checks
  // from the outside and guards against builders dropping the call.
  // (Detailed per-app structure is covered in apps_tests.)
  ProgramBuilder pb("p");
  pb.array("a", {8}, 4);
  pb.begin_loop("i", 0, 8);
  pb.stmt("s", 1).read("a", {av("i")});
  pb.end_loop();
  EXPECT_NO_THROW(validate_or_throw(pb.finish()));
}


// --- Overflow-checked counts ------------------------------------------------

/// `depth` loops of `trip` iterations around one read of a 1-element array.
Program counted_nest(int depth, i64 trip, i64 count = 1) {
  std::string text = "program counted\narray a 1 : elem 4\n";
  for (int d = 0; d < depth; ++d) {
    text += "loop i" + std::to_string(d) + " 0 " + std::to_string(trip) + " 1 {\n";
  }
  text += "stmt s ops 1 {\nread a [0] x" + std::to_string(count) + "\n}\n";
  for (int d = 0; d < depth; ++d) text += "}\n";
  return parse_program(text);
}

bool mentions(const std::vector<ValidationIssue>& issues, const std::string& what) {
  for (const ValidationIssue& issue : issues) {
    if (issue.message.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(Validate, RefusesOverflowingAccessCounts) {
  // 2^80 iterations: the unchecked product wraps (to 0 here; other shapes
  // wrap negative).
  Program p = counted_nest(4, i64{1} << 20);
  auto issues = validate(p);
  EXPECT_TRUE(mentions(issues, "access to 'a' issues more than 2^53 dynamic accesses"));
  EXPECT_TRUE(mentions(issues, "program issues more than 2^53 dynamic accesses in total"));
  EXPECT_THROW(validate_or_throw(p), std::invalid_argument);
}

TEST(Validate, BoundsCountsAt2To53) {
  // 2^54 accesses, no overflow: refused.  2^53 is the last count accepted,
  // whether from iterations or from the per-instance count.
  EXPECT_TRUE(mentions(validate(counted_nest(2, i64{1} << 27)), "more than 2^53"));
  EXPECT_TRUE(validate(counted_nest(2, i64{1} << 26, i64{1} << 1)).empty());
  EXPECT_TRUE(validate(counted_nest(1, i64{1} << 26, i64{1} << 27)).empty());
  EXPECT_TRUE(mentions(validate(counted_nest(1, i64{1} << 26, (i64{1} << 27) + 1)),
                       "more than 2^53"));

  // Each site is within the bound, the program total is not.
  ProgramBuilder pb("two_sites");
  pb.array("a", {1}, 4);
  pb.begin_loop("i", 0, i64{1} << 26);
  pb.begin_loop("j", 0, i64{1} << 27);
  pb.stmt("s", 1).read("a", {ac(0)}).read("a", {ac(0)});
  pb.end_loop();
  pb.end_loop();
  auto issues = validate(pb.finish());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("in total"), std::string::npos);
}

TEST(Validate, RefusesOversizedArrays) {
  auto array_issues = [](std::vector<i64> dims, i64 elem_bytes) {
    ProgramBuilder pb("big");
    pb.array("a", std::move(dims), elem_bytes);
    pb.stmt("s", 1).read("a", {ac(0), ac(0)});
    return validate(pb.finish());
  };
  const std::string refused = "'a' spans more than 2^53 bytes";
  EXPECT_TRUE(mentions(array_issues({i64{1} << 30, i64{1} << 30}, 4), refused));
  EXPECT_TRUE(mentions(array_issues({i64{1} << 40, i64{1} << 40}, 1), refused));
  EXPECT_TRUE(array_issues({i64{1} << 25, i64{1} << 25}, 8).empty());
}

TEST(Validate, RefusesExtremeLoopBoundsAndSubscripts) {
  // The full i64 range has 2^64 - 1 iterations: not a positive i64 trip.
  Program wide = parse_program(
      "program p\narray a 1 : elem 4\n"
      "loop i -9223372036854775808 9223372036854775807 1 {\n"
      "stmt s ops 1 {\nread a [0]\n}\n}\n");
  EXPECT_LT(wide.top()[0]->as_loop().trip(), 0);
  EXPECT_TRUE(mentions(validate(wide), "non-positive trip count"));

  // A subscript whose extreme value overflows is refused, not wrapped.
  Program far = parse_program(
      "program p\narray a 8 : elem 4\n"
      "loop i 0 4 1 {\n"
      "stmt s ops 1 {\nread a [4611686018427387904*i]\n}\n}\n");
  EXPECT_TRUE(mentions(validate(far), "overflows i64"));
}

}  // namespace
}  // namespace mhla::ir
