#pragma once

#include <string>
#include <vector>

#include "ir/program.h"

namespace mhla::ir {

/// One validation problem, with a human-readable description.
struct ValidationIssue {
  std::string message;
};

/// Largest dynamic access count (per access site and over the program)
/// and array size in bytes a valid program may have.  Counts up to 2^53
/// stay exact as doubles in the cost model, and no product or sum the
/// analyses form from them can overflow i64.
inline constexpr i64 kMaxProgramCount = i64{1} << 53;

/// Structural validation of a program:
///  * every access names a declared array,
///  * subscript rank matches array rank,
///  * every subscript variable is bound by an enclosing loop,
///  * loop trip counts are positive,
///  * extreme subscript values stay inside the array extents
///    (bounding-box check over the enclosing loop ranges, refused when
///    it overflows i64),
///  * each access site's dynamic accesses (iterations x count), the
///    program's total, and each array's byte size compute without
///    overflow and stay within kMaxProgramCount.
std::vector<ValidationIssue> validate(const Program& program);

/// Throws std::invalid_argument listing all issues if validation fails.
void validate_or_throw(const Program& program);

}  // namespace mhla::ir
