#include "ir/serialize.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace mhla::ir {

std::string format_affine(const AffineExpr& expr) {
  std::ostringstream out;
  bool first = true;
  for (const auto& [var, coef] : expr.terms()) {
    if (coef < 0) {
      out << "-";
    } else if (!first) {
      out << "+";
    }
    i64 mag = coef < 0 ? -coef : coef;
    if (mag != 1) out << mag << "*";
    out << var;
    first = false;
  }
  if (expr.constant() != 0 || first) {
    if (expr.constant() < 0) {
      out << "-" << -expr.constant();
    } else {
      if (!first) out << "+";
      out << expr.constant();
    }
  }
  return out.str();
}

namespace {

void serialize_node(std::ostringstream& out, const Node& node, int depth) {
  std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  if (node.is_loop()) {
    const LoopNode& loop = node.as_loop();
    out << pad << "loop " << loop.iter() << " " << loop.lower() << " " << loop.upper() << " "
        << loop.step() << " {\n";
    for (const NodePtr& child : loop.body()) serialize_node(out, *child, depth + 1);
    out << pad << "}\n";
    return;
  }
  const StmtNode& stmt = node.as_stmt();
  out << pad << "stmt " << stmt.name() << " ops " << stmt.op_cycles() << " {\n";
  for (const ArrayAccess& access : stmt.accesses()) {
    out << pad << "  " << (access.kind == AccessKind::Read ? "read " : "write ") << access.array;
    for (const AffineExpr& index : access.index) out << " [" << format_affine(index) << "]";
    if (access.count != 1) out << " x" << access.count;
    out << "\n";
  }
  out << pad << "}\n";
}

// Program text is read by one cursor over the input, with no per-line
// copies and no streams:
//  * lines end at '\n'; each is trimmed of " \t" at the front and of
//    " \t\r" at the back, and skipped when that leaves it empty or it
//    starts with '#';
//  * tokens are the runs between "C"-locale isspace characters;
//  * numbers read like std::stoll: an optional sign, at least one digit,
//    and reading stops at the first non-digit ("12abc" is 12).  No digit
//    throws std::invalid_argument, a value outside i64 std::out_of_range.
// Every error names the 1-based line it was found on (at the end of the
// text, the last line).

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_word(char c) { return is_alpha(c) || is_digit(c) || c == '_'; }

enum class NumberStatus { Ok, NoDigits, OutOfRange };

/// std::stoll's reading of a token without whitespace.
NumberStatus read_integer(std::string_view token, i64& out) {
  std::size_t pos = 0;
  bool negative = false;
  if (!token.empty() && (token[0] == '+' || token[0] == '-')) {
    negative = token[0] == '-';
    pos = 1;
  }
  if (pos >= token.size() || !is_digit(token[pos])) return NumberStatus::NoDigits;
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<i64>::max()) + (negative ? 1 : 0);
  std::uint64_t value = 0;
  bool overflow = false;
  for (; pos < token.size() && is_digit(token[pos]); ++pos) {
    auto digit = static_cast<std::uint64_t>(token[pos] - '0');
    if (value > (limit - digit) / 10) {
      overflow = true;
    } else {
      value = value * 10 + digit;
    }
  }
  if (overflow) return NumberStatus::OutOfRange;
  out = static_cast<i64>(negative ? 0 - value : value);
  return NumberStatus::Ok;
}

AffineExpr parse_affine_view(std::string_view text) {
  AffineExpr result;
  std::size_t pos = 0;
  auto fail = [&](const std::string& why) {
    throw std::invalid_argument("parse_affine: " + why + " in '" + std::string(text) +
                                "' at offset " + std::to_string(pos));
  };

  bool expect_term = true;
  i64 sign = 1;
  while (pos < text.size()) {
    char c = text[pos];
    if (is_space(c)) {
      ++pos;
      continue;
    }
    if (c == '+' || c == '-') {
      if (expect_term && c == '-') {
        sign = -sign;  // leading / repeated unary minus
        ++pos;
        continue;
      }
      if (expect_term) fail("unexpected '+'");
      sign = (c == '-') ? -1 : 1;
      expect_term = true;
      ++pos;
      continue;
    }
    if (!expect_term) fail("missing operator");

    if (is_digit(c)) {
      std::size_t start = pos;
      while (pos < text.size() && is_digit(text[pos])) ++pos;
      i64 value = 0;
      if (read_integer(text.substr(start, pos - start), value) != NumberStatus::Ok) {
        throw std::out_of_range("parse_affine: integer out of range in '" + std::string(text) +
                                "' at offset " + std::to_string(start));
      }
      if (pos < text.size() && text[pos] == '*') {
        ++pos;
        std::size_t vstart = pos;
        while (pos < text.size() && is_word(text[pos])) ++pos;
        if (vstart == pos) fail("expected variable after '*'");
        result.add_term(text.substr(vstart, pos - vstart), sign * value);
      } else {
        result += AffineExpr(sign * value);
      }
    } else if (is_alpha(c) || c == '_') {
      std::size_t start = pos;
      while (pos < text.size() && is_word(text[pos])) ++pos;
      result.add_term(text.substr(start, pos - start), sign);
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    sign = 1;
    expect_term = false;
  }
  if (expect_term) fail("dangling operator");
  return result;
}

/// The cursor: yields content lines, each split into tokens in place.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) { tokens_.reserve(16); }

  /// Advances to the next content line and splits it; false at the end.
  bool next_line() {
    while (pos_ < text_.size()) {
      std::size_t end = std::min(text_.find('\n', pos_), text_.size());
      std::string_view raw = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      ++line_no_;
      std::size_t begin = raw.find_first_not_of(" \t");
      std::size_t last = raw.find_last_not_of(" \t\r");
      if (last == std::string_view::npos) continue;  // only " \t\r"
      line_ = raw.substr(begin, last - begin + 1);
      if (line_[0] == '#') continue;
      split();
      if (tokens_.empty()) continue;  // only whitespace ("\v", "\f", ...)
      return true;
    }
    line_ = {};
    tokens_.clear();
    return false;
  }

  std::string_view line() const { return line_; }
  const std::vector<std::string_view>& tokens() const { return tokens_; }
  /// First token, or "" for a line of whitespace only.
  std::string_view first() const { return tokens_.empty() ? std::string_view() : tokens_[0]; }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument(where() + why);
  }

  i64 integer(std::string_view token) const {
    i64 value = 0;
    switch (read_integer(token, value)) {
      case NumberStatus::Ok:
        break;
      case NumberStatus::NoDigits:
        fail("expected an integer, got '" + std::string(token) + "'");
      case NumberStatus::OutOfRange:
        throw std::out_of_range(where() + "integer out of range: '" + std::string(token) + "'");
    }
    return value;
  }

  /// Runs `f`, naming the line in any std::invalid_argument or
  /// std::out_of_range it throws.
  template <typename F>
  decltype(auto) guard(F&& f) const {
    try {
      return f();
    } catch (const std::out_of_range& error) {
      throw std::out_of_range(where() + error.what());
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(where() + error.what());
    }
  }

 private:
  std::string where() const { return "parse_program: line " + std::to_string(line_no_) + ": "; }

  void split() {
    tokens_.clear();
    std::size_t i = 0;
    const std::size_t n = line_.size();
    for (;;) {
      while (i < n && is_space(line_[i])) ++i;
      if (i == n) return;
      std::size_t start = i;
      while (i < n && !is_space(line_[i])) ++i;
      tokens_.push_back(line_.substr(start, i - start));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
  std::string_view line_;
  std::vector<std::string_view> tokens_;
};

/// `read|write <array> [<affine>]... [x<count>]`
ArrayAccess parse_access(const Reader& in) {
  const std::vector<std::string_view>& tokens = in.tokens();
  ArrayAccess access;
  access.kind = tokens[0] == "read" ? AccessKind::Read : AccessKind::Write;
  if (tokens.size() < 2) in.fail("access needs an array name");
  access.array = tokens[1];
  for (std::size_t t = 2; t < tokens.size(); ++t) {
    std::string_view token = tokens[t];
    if (token.size() >= 2 && token.front() == '[' && token.back() == ']') {
      access.index.push_back(
          in.guard([&] { return parse_affine_view(token.substr(1, token.size() - 2)); }));
    } else if (token.size() >= 2 && token[0] == 'x' && is_digit(token[1])) {
      access.count = in.integer(token.substr(1));
    } else {
      in.fail("unexpected access token '" + std::string(token) + "'");
    }
  }
  return access;
}

/// `array <name> <dim>... : elem <bytes> [input] [output]`
ArrayDecl parse_array(const Reader& in) {
  const std::vector<std::string_view>& tokens = in.tokens();
  if (tokens.size() < 5) in.fail("malformed array declaration");
  ArrayDecl decl;
  decl.name = tokens[1];
  std::size_t t = 2;
  for (; t < tokens.size() && tokens[t] != ":"; ++t) decl.dims.push_back(in.integer(tokens[t]));
  if (t + 2 >= tokens.size() || tokens[t] != ":" || tokens[t + 1] != "elem") {
    in.fail("array declaration missing ': elem <bytes>'");
  }
  decl.elem_bytes = in.integer(tokens[t + 2]);
  for (std::size_t f = t + 3; f < tokens.size(); ++f) {
    if (tokens[f] == "input") {
      decl.is_input = true;
    } else if (tokens[f] == "output") {
      decl.is_output = true;
    } else {
      in.fail("unknown array flag '" + std::string(tokens[f]) + "'");
    }
  }
  return decl;
}

/// `loop <iter> <lower> <upper> <step> {`
std::unique_ptr<LoopNode> parse_loop_header(const Reader& in) {
  const std::vector<std::string_view>& tokens = in.tokens();
  if (tokens.size() != 6 || tokens[5] != "{") in.fail("malformed loop header");
  // Read right to left: with two bad numbers the exception type is the
  // one the reference parser (tests/oracles) throws.
  i64 step = in.integer(tokens[4]);
  i64 upper = in.integer(tokens[3]);
  i64 lower = in.integer(tokens[2]);
  return std::make_unique<LoopNode>(std::string(tokens[1]), lower, upper, step);
}

/// `stmt <name> ops <cycles> {`
std::unique_ptr<StmtNode> parse_stmt_header(const Reader& in) {
  const std::vector<std::string_view>& tokens = in.tokens();
  if (tokens.size() != 5 || tokens[2] != "ops" || tokens[4] != "{") {
    in.fail("malformed stmt header");
  }
  return std::make_unique<StmtNode>(std::string(tokens[1]), in.integer(tokens[3]));
}

}  // namespace

std::string serialize(const Program& program) {
  std::ostringstream out;
  out << "program " << program.name() << "\n";
  for (const ArrayDecl& array : program.arrays()) {
    out << "array " << array.name;
    for (i64 d : array.dims) out << " " << d;
    out << " : elem " << array.elem_bytes;
    if (array.is_input) out << " input";
    if (array.is_output) out << " output";
    out << "\n";
  }
  for (const NodePtr& top : program.top()) serialize_node(out, *top, 0);
  return out.str();
}

Program parse_program(const std::string& text) {
  Reader in(text);
  in.next_line();
  if (in.tokens().size() != 2 || in.first() != "program") {
    in.fail("expected 'program <name>' header");
  }
  Program program{std::string(in.tokens()[1])};

  std::vector<LoopNode*> open;  // enclosing loops, outermost first
  StmtNode* stmt = nullptr;     // the statement whose accesses are being read
  auto attach = [&](NodePtr node) {
    if (open.empty()) {
      program.append_top(std::move(node));
    } else {
      open.back()->append(std::move(node));
    }
  };
  while (in.next_line()) {
    std::string_view first = in.first();
    if (stmt) {
      if (in.line() == "}") {
        stmt = nullptr;
      } else if (first == "read" || first == "write") {
        stmt->add_access(parse_access(in));
      } else {
        in.fail("expected read/write inside stmt, got '" + std::string(first) + "'");
      }
    } else if (!open.empty() && in.line() == "}") {
      open.pop_back();
    } else if (open.empty() && first == "array") {
      ArrayDecl decl = parse_array(in);
      in.guard([&] { program.add_array(std::move(decl)); });
    } else if (first == "loop") {
      if (open.size() >= kMaxLoopDepth) {
        in.fail("loops nest deeper than " + std::to_string(kMaxLoopDepth));
      }
      std::unique_ptr<LoopNode> loop = parse_loop_header(in);
      LoopNode* body = loop.get();
      attach(std::move(loop));
      open.push_back(body);
    } else if (first == "stmt") {
      std::unique_ptr<StmtNode> node = parse_stmt_header(in);
      stmt = node.get();
      attach(std::move(node));
    } else {
      in.fail("expected loop/stmt, got '" + std::string(first) + "'");
    }
  }
  if (stmt) in.fail("unterminated stmt");
  if (!open.empty()) in.fail("unterminated loop");
  return program;
}

AffineExpr parse_affine(const std::string& text) { return parse_affine_view(text); }

}  // namespace mhla::ir
