#include "ir/validate.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ir/walk.h"

namespace mhla::ir {

namespace {

/// Minimum and maximum of an affine expression over the box spanned by the
/// enclosing loops (each iterator ranges over its loop's values); nullopt
/// when a bound overflows i64.
struct Range {
  i64 lo = 0;
  i64 hi = 0;
};

std::optional<Range> subscript_range(const AffineExpr& expr, const LoopPath& path) {
  Range r{expr.constant(), expr.constant()};
  for (const auto& [var, coef] : expr.terms()) {
    const LoopNode* loop = nullptr;
    for (const LoopNode* candidate : path) {
      if (candidate->iter() == var) {
        loop = candidate;
        break;
      }
    }
    if (!loop || loop->trip() <= 0) continue;  // unbound vars and empty loops reported separately
    i64 span = 0;
    i64 last = 0;
    i64 a = 0;
    i64 b = 0;
    if (__builtin_mul_overflow(loop->trip() - 1, loop->step(), &span) ||
        __builtin_add_overflow(loop->lower(), span, &last) ||
        __builtin_mul_overflow(coef, loop->lower(), &a) ||
        __builtin_mul_overflow(coef, last, &b) ||
        __builtin_add_overflow(r.lo, std::min(a, b), &r.lo) ||
        __builtin_add_overflow(r.hi, std::max(a, b), &r.hi)) {
      return std::nullopt;
    }
  }
  return r;
}

}  // namespace

std::vector<ValidationIssue> validate(const Program& program) {
  std::vector<ValidationIssue> issues;
  auto report = [&](const std::string& message) { issues.push_back({message}); };
  const std::string limit = " more than 2^53";

  for (const ArrayDecl& array : program.arrays()) {
    i64 bytes = array.elem_bytes;
    bool overflow = false;
    for (i64 extent : array.dims) overflow |= __builtin_mul_overflow(bytes, extent, &bytes);
    if (overflow || bytes > kMaxProgramCount) {
      report("array '" + array.name + "' spans" + limit + " bytes");
    }
  }

  i64 total = 0;
  bool total_overflow = false;
  walk_statements(program, [&](int nest, const LoopPath& path, const StmtNode& stmt) {
    i64 iterations = 1;
    bool overflow = false;
    for (const LoopNode* loop : path) {
      if (loop->trip() <= 0) {
        report("nest " + std::to_string(nest) + ": loop '" + loop->iter() +
               "' has non-positive trip count");
      }
      overflow |= __builtin_mul_overflow(iterations, loop->trip(), &iterations);
    }
    for (const ArrayAccess& access : stmt.accesses()) {
      const ArrayDecl* array = program.find_array(access.array);
      if (!array) {
        report("statement '" + stmt.name() + "' accesses undeclared array '" + access.array + "'");
        continue;
      }
      if (static_cast<int>(access.index.size()) != array->rank()) {
        report("statement '" + stmt.name() + "': access to '" + access.array + "' has " +
               std::to_string(access.index.size()) + " subscripts, array rank is " +
               std::to_string(array->rank()));
        continue;
      }
      i64 accesses = 0;
      if (access.count <= 0) {
        report("statement '" + stmt.name() + "': access to '" + access.array +
               "' has non-positive count");
      } else if (overflow || __builtin_mul_overflow(iterations, access.count, &accesses) ||
                 accesses > kMaxProgramCount) {
        report("statement '" + stmt.name() + "': access to '" + access.array + "' issues" +
               limit + " dynamic accesses");
        total_overflow = true;
      } else {
        total_overflow |= __builtin_add_overflow(total, accesses, &total);
      }
      for (int dim = 0; dim < array->rank(); ++dim) {
        const AffineExpr& expr = access.index[static_cast<std::size_t>(dim)];
        for (const auto& [var, coef] : expr.terms()) {
          (void)coef;
          bool bound = std::any_of(path.begin(), path.end(), [&](const LoopNode* loop) {
            return loop->iter() == var;
          });
          if (!bound) {
            report("statement '" + stmt.name() + "': subscript variable '" + var +
                   "' is not bound by an enclosing loop");
          }
        }
        std::optional<Range> r = subscript_range(expr, path);
        if (!r) {
          report("statement '" + stmt.name() + "': subscript " + expr.to_string() + " of '" +
                 access.array + "' dim " + std::to_string(dim) + " overflows i64");
        } else if (r->lo < 0 || r->hi >= array->dims[static_cast<std::size_t>(dim)]) {
          std::ostringstream msg;
          msg << "statement '" << stmt.name() << "': subscript " << expr.to_string() << " of '"
              << access.array << "' dim " << dim << " spans [" << r->lo << ", " << r->hi
              << "] outside [0, " << array->dims[static_cast<std::size_t>(dim)] - 1 << "]";
          report(msg.str());
        }
      }
    }
  });
  if (total_overflow || total > kMaxProgramCount) {
    report("program issues" + limit + " dynamic accesses in total");
  }
  return issues;
}

void validate_or_throw(const Program& program) {
  std::vector<ValidationIssue> issues = validate(program);
  if (issues.empty()) return;
  std::ostringstream msg;
  msg << "program '" << program.name() << "' failed validation:";
  for (const ValidationIssue& issue : issues) msg << "\n  - " << issue.message;
  throw std::invalid_argument(msg.str());
}

}  // namespace mhla::ir
