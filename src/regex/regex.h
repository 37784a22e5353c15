#ifndef NTW_REGEX_REGEX_H_
#define NTW_REGEX_REGEX_H_

#include <bitset>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ntw::regex {

/// A compact backtracking regular-expression engine — the substrate for
/// the paper's regex-based annotators (e.g. the five-digit US zipcode
/// annotator of Appendix A). Supported syntax:
///
///   literals        a b c ...            escapes   \d \D \w \W \s \S \. …
///   any             .                    classes   [a-z0-9_] [^…]
///   quantifiers     * + ? {m} {m,} {m,n} (greedy)
///   anchors         ^ $ and word boundary \b
///   groups          ( … ) (non-capturing semantics)
///   alternation     a|b
///
/// The engine is a continuation-passing recursive backtracker over a
/// parsed AST: alternatives are tried in pattern order and quantifiers
/// are greedy, at every nesting depth alike. It is deliberately small and has no capture groups — annotators only need
/// match detection and match spans.
///
/// Compile() also derives two facts about the pattern: the set of bytes a
/// non-empty match can begin with, and whether any match can be empty.
/// PartialMatch() and FindAll() skip every start offset whose byte cannot
/// begin a match when the pattern cannot match the empty string. The
/// backtracker would fail at such an offset anyway, so the matches are
/// exactly those of trying every offset.
class Regex {
 public:
  /// Compiles a pattern; ParseError on malformed syntax.
  static Result<Regex> Compile(std::string_view pattern);

  Regex(Regex&&) noexcept;
  Regex& operator=(Regex&&) noexcept;
  Regex(const Regex&) = delete;
  Regex& operator=(const Regex&) = delete;
  ~Regex();

  /// True when the whole input matches.
  bool FullMatch(std::string_view text) const;

  /// True when any substring matches.
  bool PartialMatch(std::string_view text) const;

  /// Spans [begin, end) of non-overlapping left-to-right matches.
  struct Span {
    size_t begin;
    size_t end;
  };
  std::vector<Span> FindAll(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }

  /// AST node; opaque to clients (defined in regex.cc).
  struct Node;

 private:
  Regex(std::string pattern, std::unique_ptr<Node> root);

  /// False only where no match can start at `start` (see the class note).
  bool CanStartAt(std::string_view text, size_t start) const {
    return nullable_ || (start < text.size() &&
                         first_bytes_.test(static_cast<unsigned char>(
                             text[start])));
  }

  std::string pattern_;
  std::unique_ptr<Node> root_;
  std::bitset<256> first_bytes_;  // Bytes a non-empty match begins with.
  bool nullable_ = true;          // Some match may consume nothing.
};

}  // namespace ntw::regex

#endif  // NTW_REGEX_REGEX_H_
