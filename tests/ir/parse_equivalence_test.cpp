// Equivalence of `ir::parse_program` with the line-based reference parser
// (`oracles::parse_program_reference`) over a deterministic, grammar-aware
// mutation corpus: both accept with the same serialize() text, or both
// throw the same exception type, and where the reference names a line the
// new parser names the same one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "gen/random_program.h"
#include "ir/serialize.h"
#include "oracles/oracles.h"

namespace mhla::ir {
namespace {

/// What one parser made of one input.
struct Outcome {
  bool accepted = false;
  std::string text;   ///< serialize() of the program when accepted
  std::string error;  ///< "invalid_argument" / "out_of_range" / "other"
  std::string message;
  long line = -1;     ///< line named in the message, -1 if none
};

long line_named(const std::string& message) {
  const std::string tag = "parse_program: line ";
  if (message.rfind(tag, 0) != 0) return -1;
  return std::stol(message.substr(tag.size()));
}

template <typename Parse>
Outcome outcome_of(Parse parse, const std::string& text) {
  Outcome out;
  try {
    out.text = serialize(parse(text));
    out.accepted = true;
    return out;
  } catch (const std::invalid_argument& error) {
    out.error = "invalid_argument";
    out.message = error.what();
  } catch (const std::out_of_range& error) {
    out.error = "out_of_range";
    out.message = error.what();
  } catch (const std::exception& error) {
    out.error = "other";
    out.message = error.what();
  }
  out.line = line_named(out.message);
  return out;
}

bool is_c_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines, bool final_newline = true) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += lines[i];
    if (i + 1 < lines.size() || final_newline) text += '\n';
  }
  return text;
}

/// A line with no token is blank to the parser wherever it appears.  The
/// reference reads a line that survives its trimming (a "\v", or blanks
/// before a '\r') through an empty token vector — undefined behaviour — so
/// it is compared on the text with every tokenless line emptied.  An
/// emptied last line keeps a newline, so the line count (named by an
/// "unterminated" error at the end) stays the same.
std::string with_tokenless_lines_emptied(const std::string& text, bool& emptied) {
  emptied = false;
  std::vector<std::string> lines = split_lines(text);
  for (std::string& line : lines) {
    if (line.empty() || !std::all_of(line.begin(), line.end(), is_c_space)) continue;
    line.clear();
    emptied = true;
  }
  bool final_newline = (!text.empty() && text.back() == '\n') || (emptied && lines.back().empty());
  return join_lines(lines, final_newline);
}

/// Checks one input; returns the new parser's outcome.
Outcome expect_equivalent(const std::string& text) {
  bool emptied = false;
  std::string reference_text = with_tokenless_lines_emptied(text, emptied);
  Outcome fresh = outcome_of(parse_program, text);
  Outcome reference = outcome_of(oracles::parse_program_reference, reference_text);
  EXPECT_EQ(fresh.accepted, reference.accepted) << fresh.message << " | " << reference.message;
  if (fresh.accepted && reference.accepted) {
    EXPECT_EQ(fresh.text, reference.text);
  } else if (!fresh.accepted && !reference.accepted) {
    EXPECT_EQ(fresh.error, reference.error) << fresh.message << " | " << reference.message;
    // Every error of the new parser names its line; the reference's
    // number, subscript and add_array errors name none.
    EXPECT_GE(fresh.line, 0) << fresh.message;
    if (reference.line >= 0) {
      EXPECT_EQ(fresh.line, reference.line) << fresh.message << " | " << reference.message;
    }
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "input" << (emptied ? " (tokenless lines emptied for the reference)" : "")
                  << ":\n" << ::testing::PrintToString(text);
  }
  return fresh;
}

/// Deterministic grammar-aware mutator over program text.
class Mutator {
 public:
  explicit Mutator(std::uint32_t seed) : rng_(seed) {}

  std::string mutate(const std::string& text) {
    std::string out = text;
    int rounds = 1 + pick(3);
    for (int r = 0; r < rounds; ++r) out = once(out);
    return out;
  }

 private:
  static std::vector<std::string> tokens_of(const std::string& line) {
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && is_c_space(line[i])) ++i;
      std::size_t start = i;
      while (i < line.size() && !is_c_space(line[i])) ++i;
      if (i > start) tokens.push_back(line.substr(start, i - start));
    }
    return tokens;
  }

  static std::string indent_of(const std::string& line) {
    return line.substr(0, std::min(line.find_first_not_of(" \t"), line.size()));
  }

  static std::string join_tokens(const std::string& indent,
                                 const std::vector<std::string>& tokens) {
    std::string line = indent;
    for (std::size_t i = 0; i < tokens.size(); ++i) line += (i ? " " : "") + tokens[i];
    return line;
  }

  static bool numeric(const std::string& token) {
    return !token.empty() && (std::isdigit(static_cast<unsigned char>(token[0])) ||
                              ((token[0] == '-' || token[0] == '+') && token.size() > 1));
  }

  int pick(int n) { return static_cast<int>(rng_() % static_cast<std::uint32_t>(n)); }

  template <typename T>
  const T& choose(const std::vector<T>& options) {
    return options[static_cast<std::size_t>(pick(static_cast<int>(options.size())))];
  }

  std::string once(const std::string& text) {
    std::vector<std::string> lines = split_lines(text);
    if (lines.empty()) return text + "program p\n";
    std::size_t at = static_cast<std::size_t>(pick(static_cast<int>(lines.size())));
    std::string& line = lines[at];
    std::vector<std::string> tokens = tokens_of(line);
    const std::string indent = indent_of(line);
    switch (pick(16)) {
      case 0:  // delete a line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:  // duplicate a line
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), std::string(line));
        break;
      case 2:  // swap two lines
        std::swap(line, lines[static_cast<std::size_t>(pick(static_cast<int>(lines.size())))]);
        break;
      case 3:  // delete a token
        if (!tokens.empty()) {
          tokens.erase(tokens.begin() + pick(static_cast<int>(tokens.size())));
          line = join_tokens(indent, tokens);
        }
        break;
      case 4:  // duplicate a token
        if (!tokens.empty()) {
          std::size_t t = static_cast<std::size_t>(pick(static_cast<int>(tokens.size())));
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t), tokens[t]);
          line = join_tokens(indent, tokens);
        }
        break;
      case 5:  // swap two adjacent tokens
        if (tokens.size() >= 2) {
          std::size_t t = static_cast<std::size_t>(pick(static_cast<int>(tokens.size()) - 1));
          std::swap(tokens[t], tokens[t + 1]);
          line = join_tokens(indent, tokens);
        }
        break;
      case 6:
      case 7: {  // replace a number (or any token) with an edge spelling
        static const std::vector<std::string> kEdges = {
            "+5", "12abc", "9223372036854775808", "9223372036854775807",
            "-9223372036854775808", "-9223372036854775809", "99999999999999999999999",
            "18446744073709551616", "-99999999999999999999", "+9223372036854775808",
            "abc", "+", "-", "+-5", "-+5", "0x10", "007", "-0", "0", "-3", "x2", "x0",
            "x12abc", "x99999999999999999999", "[]", "[i", "i]", "[+]", "[--i]", "[2*]",
            "[i+1]", "[3*i-2]", "[99999999999999999999]", "[i*2]", "{", "}", ":", "elem",
            "input", "output", "ops", "read", "write"};
        if (!tokens.empty()) {
          std::vector<std::size_t> numbers;
          for (std::size_t t = 0; t < tokens.size(); ++t) {
            if (numeric(tokens[t])) numbers.push_back(t);
          }
          std::size_t t = !numbers.empty() && pick(4) != 0
                              ? choose(numbers)
                              : static_cast<std::size_t>(pick(static_cast<int>(tokens.size())));
          tokens[t] = choose(kEdges);
          line = join_tokens(indent, tokens);
        }
        break;
      }
      case 8:  // tabs for spaces
        for (char& c : line) {
          if (c == ' ' && pick(2) == 0) c = '\t';
        }
        break;
      case 9:  // carriage returns: CRLF, a lone "\r" line, an indented one
        switch (pick(3)) {
          case 0:
            for (std::string& l : lines) l += '\r';
            break;
          case 1:
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), "\r");
            break;
          default:
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), indent + " \r");
            break;
        }
        break;
      case 10:  // a stray byte anywhere in the line
      case 11: {
        static const std::vector<char> kBytes = {'\0', '\v', '\f', '\r', '\t', ' ',  '#',
                                                 '{',  '}',  '[',  ']',  '*',  '+',  '-',
                                                 'x',  ':',  '_',  '7',  '\x80', '\xff'};
        std::size_t pos = static_cast<std::size_t>(pick(static_cast<int>(line.size()) + 1));
        char byte = choose(kBytes);
        if (pick(2) == 0 && pos < line.size()) {
          line[pos] = byte;
        } else {
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(pos), byte);
        }
        break;
      }
      case 12:  // comment a line out, or a blank / comment line in
        if (pick(2) == 0) {
          line = "#" + line;
        } else {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                       pick(2) == 0 ? indent + "# note" : indent);
        }
        break;
      case 13:  // re-indent
        line = std::string(static_cast<std::size_t>(pick(6)), pick(2) == 0 ? ' ' : '\t') +
               line.substr(indent.size());
        break;
      case 14:  // truncate the text
        return text.substr(0, static_cast<std::size_t>(pick(static_cast<int>(text.size()) + 1)));
      default:  // drop the final newline
        return join_lines(lines, false);
    }
    return join_lines(lines);
  }

  std::mt19937 rng_;
};

std::vector<std::string> base_texts() {
  std::vector<std::string> texts;
  for (const apps::AppInfo& app : apps::all_apps()) texts.push_back(serialize(app.build()));
  gen::RandomProgramConfig deep;
  deep.max_depth = 5;
  deep.max_accesses_per_stmt = 4;
  for (std::uint32_t seed = 0; seed < 60; ++seed) {
    const gen::RandomProgramConfig config = seed % 2 ? deep : gen::RandomProgramConfig{};
    texts.push_back(serialize(gen::random_program(seed, config)));
  }
  return texts;
}

TEST(ParseEquivalence, UnmutatedCorpusRoundTrips) {
  for (const std::string& text : base_texts()) {
    Outcome fresh = expect_equivalent(text);
    EXPECT_TRUE(fresh.accepted) << fresh.message;
    EXPECT_EQ(fresh.text, text);
  }
}

TEST(ParseEquivalence, MutationCorpusMatchesReference) {
  const std::vector<std::string> texts = base_texts();
  std::size_t accepted = 0;
  std::size_t invalid = 0;
  std::size_t out_of_range = 0;
  std::size_t inputs = 0;
  for (std::size_t b = 0; b < texts.size(); ++b) {
    Mutator mutator(static_cast<std::uint32_t>(1000 + b));
    const int variants = b < apps::all_apps().size() ? 300 : 40;
    for (int v = 0; v < variants; ++v) {
      Outcome fresh = expect_equivalent(mutator.mutate(texts[b]));
      ++inputs;
      if (fresh.accepted) {
        ++accepted;
      } else if (fresh.error == "out_of_range") {
        ++out_of_range;
      } else {
        ++invalid;
      }
      if (::testing::Test::HasFailure()) return;  // one diagnosed input is enough
    }
  }
  // The corpus must exercise every outcome, or the comparison is vacuous.
  EXPECT_GE(inputs, 5000u);
  EXPECT_GE(accepted, inputs / 10) << accepted << " of " << inputs;
  EXPECT_GE(invalid, inputs / 4) << invalid << " of " << inputs;
  EXPECT_GE(out_of_range, 50u) << out_of_range << " of " << inputs;
}

TEST(ParseEquivalence, NumberSpellingsInEveryPosition) {
  const std::string templ =
      "program p\n"
      "array a @A : elem @E input\n"
      "loop i @L @U @S {\n"
      "  stmt s ops @O {\n"
      "    read a [i] x@C\n"
      "  }\n"
      "}\n";
  const std::vector<std::pair<std::string, std::string>> slots = {
      {"@A", "64"}, {"@E", "4"}, {"@L", "0"}, {"@U", "8"}, {"@S", "1"}, {"@O", "2"}, {"@C", "3"}};
  const std::vector<std::string> spellings = {
      "4", "+5", "12abc", "-3", "0", "-0", "007", "0x10", "+", "-", "+-5", "-+5", "abc", "",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "99999999999999999999999", std::string("3\0" "9", 3),
      std::string("\0" "5", 2)};
  for (const auto& [slot, _] : slots) {
    for (const std::string& spelling : spellings) {
      std::string text = templ;
      for (const auto& [other, fallback] : slots) {
        text.replace(text.find(other), other.size(), other == slot ? spelling : fallback);
      }
      SCOPED_TRACE(::testing::PrintToString(text));
      expect_equivalent(text);
    }
  }
  // Two bad numbers on one line: the first one read decides the type.
  const std::vector<std::string> bad = {"abc", "99999999999999999999999"};
  for (const auto& [one, _] : slots) {
    for (const auto& [two, __] : slots) {
      if (one == two) continue;
      for (const std::string& first : bad) {
        for (const std::string& second : bad) {
          std::string text = templ;
          for (const auto& [slot, fallback] : slots) {
            text.replace(text.find(slot), slot.size(),
                         slot == one ? first : slot == two ? second : fallback);
          }
          SCOPED_TRACE(::testing::PrintToString(text));
          expect_equivalent(text);
        }
      }
    }
  }
}

TEST(ParseEquivalence, StollLeniencyIsKept) {
  Program p = parse_program(
      "program p\n"
      "array a +5 : elem 4x\n"
      "loop i 0 12abc +1 {\n"
      "  stmt s ops 2z {\n"
      "    read a [i] x3y\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(p.arrays()[0].dims, std::vector<i64>{5});
  EXPECT_EQ(p.arrays()[0].elem_bytes, 4);
  const LoopNode& loop = p.top()[0]->as_loop();
  EXPECT_EQ(loop.upper(), 12);
  EXPECT_EQ(loop.step(), 1);
  EXPECT_EQ(loop.body()[0]->as_stmt().op_cycles(), 2);
  EXPECT_EQ(loop.body()[0]->as_stmt().accesses()[0].count, 3);

  EXPECT_THROW(parse_program("program p\narray a 9223372036854775808 : elem 4\n"),
               std::out_of_range);
  EXPECT_THROW(parse_program("program p\narray a q : elem 4\n"), std::invalid_argument);
}

TEST(ParseEquivalence, EveryErrorNamesItsLine) {
  auto line_of = [](const std::string& text) { return outcome_of(parse_program, text).line; };
  EXPECT_EQ(line_of("program p\n\narray a 4 : elem zz\n"), 3);
  EXPECT_EQ(line_of("program p\narray a 4 : elem 4\narray a 4 : elem 4\n"), 3);
  EXPECT_EQ(line_of("program p\nloop i 0 4 1 {\n stmt s ops 1 {\n  read a [i+]\n }\n}\n"), 4);
  EXPECT_EQ(line_of("program p\nloop i 0 99999999999999999999 1 {\n}\n"), 2);
  EXPECT_EQ(line_of("program p\nloop i 0 4 1 {\n"), 2);  // unterminated: the last line
  EXPECT_EQ(line_of(""), 0);
}

TEST(ParseEquivalence, TokenlessLinesAreBlank) {
  // Every line without a token is blank wherever it appears: blanks before
  // a '\r' (an indented blank line of a CRLF file), and "\v" / "\f", which
  // the trim keeps but the tokenizer splits into nothing.
  for (const std::string blank : {"\r", "  \r", "\t\r", "\v", "\f", " \f ", " \v\r"}) {
    const std::string body = "array a 4 : elem 4\nstmt s ops 1 {\nread a [0]\n}\n";
    for (const std::string& text :
         {blank + "\nprogram p\n" + body, "program p\n" + blank + "\n" + body,
          "program p\nloop i 0 4 1 {\n" + blank + "\n}\n",
          "program p\n" + blank + "\n" + body + blank + "\nbogus\n"}) {
      SCOPED_TRACE(::testing::PrintToString(text));
      expect_equivalent(text);
    }
    const std::string blank_line = blank + "\n";
    EXPECT_EQ(serialize(parse_program(blank_line + "program p\n" + blank_line + body)),
              serialize(parse_program("program p\n" + body)));
    // An error after a blank line still names its own line.
    EXPECT_EQ(outcome_of(parse_program, "program p\n" + blank_line + "bogus\n").line, 3);
  }
  // A CRLF file with indented blank lines parses like its LF twin.
  EXPECT_EQ(serialize(parse_program("program p\r\n  \r\narray a 4 : elem 4\r\n\t\r\n"
                                    "stmt s ops 1 {\r\n    \r\nread a [0]\r\n}\r\n")),
            serialize(parse_program("program p\narray a 4 : elem 4\nstmt s ops 1 {\nread a [0]\n}\n")));
}

std::string nested_loops(std::size_t depth) {
  std::string text = "program deep\narray a 1 : elem 4\n";
  for (std::size_t d = 0; d < depth; ++d) text += "loop i" + std::to_string(d) + " 0 1 1 {\n";
  text += "stmt s ops 1 {\nread a [0]\n}\n";
  for (std::size_t d = 0; d < depth; ++d) text += "}\n";
  return text;
}

TEST(ParseDepth, NestingUpToTheCapIsAccepted) {
  Program p = parse_program(nested_loops(kMaxLoopDepth));
  EXPECT_EQ(serialize(p), serialize(oracles::parse_program_reference(nested_loops(kMaxLoopDepth))));
  EXPECT_THROW(parse_program(nested_loops(kMaxLoopDepth + 1)), std::invalid_argument);
}

TEST(ParseDepth, HundredThousandNestedLoopsGetATypedError) {
  // 2.3 MB of text: the recursive reference overflows an 8 MiB thread
  // stack on it.  The cap refuses it at the first loop too deep.
  const std::string text = nested_loops(100'000);
  std::string message;
  bool invalid = false;
  std::thread worker([&] {
    try {
      parse_program(text);
    } catch (const std::invalid_argument& error) {
      invalid = true;
      message = error.what();
    }
  });
  worker.join();
  EXPECT_TRUE(invalid);
  EXPECT_EQ(line_named(message), static_cast<long>(2 + kMaxLoopDepth + 1)) << message;
  EXPECT_NE(message.find("deeper than"), std::string::npos) << message;
}

}  // namespace
}  // namespace mhla::ir
