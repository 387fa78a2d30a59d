#include "ir/affine.h"

#include <sstream>
#include <stdexcept>

namespace mhla::ir {

AffineExpr AffineExpr::variable(const std::string& var, i64 coef) {
  AffineExpr e;
  if (coef != 0) e.terms_[var] = coef;
  return e;
}

i64 AffineExpr::coef(const std::string& var) const {
  auto it = terms_.find(var);
  return it == terms_.end() ? 0 : it->second;
}

i64 AffineExpr::evaluate(const std::map<std::string, i64>& binding) const {
  i64 value = constant_;
  for (const auto& [var, coef] : terms_) {
    auto it = binding.find(var);
    if (it == binding.end()) {
      throw std::out_of_range("AffineExpr::evaluate: unbound variable '" + var + "'");
    }
    value += coef * it->second;
  }
  return value;
}

AffineExpr& AffineExpr::add_term(std::string_view var, i64 coef) {
  if (coef == 0) return *this;
  auto [it, inserted] = terms_.try_emplace(std::string(var), coef);
  if (!inserted) {
    it->second += coef;
    if (it->second == 0) terms_.erase(it);
  }
  return *this;
}

AffineExpr& AffineExpr::operator+=(const AffineExpr& rhs) {
  constant_ += rhs.constant_;
  for (const auto& [var, coef] : rhs.terms_) add_term(var, coef);
  return *this;
}

AffineExpr& AffineExpr::operator-=(const AffineExpr& rhs) {
  AffineExpr negated = rhs;
  negated *= -1;
  return *this += negated;
}

AffineExpr& AffineExpr::operator*=(i64 scale) {
  if (scale == 0) {
    terms_.clear();
    constant_ = 0;
    return *this;
  }
  constant_ *= scale;
  for (auto& [var, coef] : terms_) coef *= scale;
  return *this;
}

AffineExpr operator+(AffineExpr lhs, const AffineExpr& rhs) { return lhs += rhs; }
AffineExpr operator-(AffineExpr lhs, const AffineExpr& rhs) { return lhs -= rhs; }
AffineExpr operator*(i64 scale, AffineExpr expr) { return expr *= scale; }

std::string AffineExpr::to_string() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [var, coef] : terms_) {
    if (!first) out << (coef < 0 ? " - " : " + ");
    if (first && coef < 0) out << "-";
    i64 mag = coef < 0 ? -coef : coef;
    if (mag != 1) out << mag << "*";
    out << var;
    first = false;
  }
  if (constant_ != 0 || first) {
    if (!first) out << (constant_ < 0 ? " - " : " + ");
    if (first && constant_ < 0) out << "-";
    out << (constant_ < 0 ? -constant_ : constant_);
  }
  return out.str();
}

AffineExpr av(const std::string& var, i64 coef) { return AffineExpr::variable(var, coef); }
AffineExpr ac(i64 constant) { return AffineExpr(constant); }

AffineExpr substitute(const AffineExpr& expr, const std::string& var,
                      const AffineExpr& replacement) {
  i64 coef = expr.coef(var);
  if (coef == 0) return expr;
  AffineExpr out = expr;
  out -= AffineExpr::variable(var, coef);
  AffineExpr scaled = replacement;
  scaled *= coef;
  out += scaled;
  return out;
}

}  // namespace mhla::ir
