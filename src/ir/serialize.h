#pragma once

#include <cstddef>
#include <string>

#include "ir/program.h"

namespace mhla::ir {

/// Plain-text program format, round-trippable through parse_program():
///
///   program motion_estimation
///   array cur 144 176 : elem 1 input
///   array mv 9 11 : elem 2 output
///   loop by 0 9 1 {
///     loop y 0 16 1 {
///       stmt sad ops 2 {
///         read cur [16*by+y] [x]
///         write mv [by] [bx] x3
///       }
///     }
///   }
///
/// One declaration per line; loops close with a bare '}'.  Affine
/// subscripts are written without spaces: `16*by+y-3`.  The optional
/// trailing `xN` on an access is the per-instance access count.
///
/// The ATOMIUM front end the paper used consumed (pruned) C source; this
/// format is our substitution for an external application-description
/// boundary (see DESIGN.md).
std::string serialize(const Program& program);

/// Deepest loop nesting parse_program accepts.  The registry apps nest at
/// most 6 deep; the cap bounds the parser and every recursive walk of a
/// parsed tree on hostile input.
inline constexpr std::size_t kMaxLoopDepth = 64;

/// Parse the format back.  Malformed input throws std::invalid_argument,
/// or std::out_of_range for a number outside i64, with the line number in
/// the message; so do loops nested deeper than kMaxLoopDepth.
/// `serialize(parse_program(serialize(p)))` is the identity for every
/// valid program.
Program parse_program(const std::string& text);

/// Parse one affine expression, e.g. "16*by+y-3".  Exposed for tests.
AffineExpr parse_affine(const std::string& text);

/// Serialize one affine expression in the compact format.
std::string format_affine(const AffineExpr& expr);

}  // namespace mhla::ir
