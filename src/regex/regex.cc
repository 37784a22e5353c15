#include "regex/regex.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <type_traits>

#include "common/strings.h"

namespace ntw::regex {

/// AST node. A pattern compiles to an alternation of concatenations of
/// quantified atoms.
struct Regex::Node {
  enum class Kind {
    kAlternation,  // children: alternatives.
    kConcat,       // children: sequence.
    kRepeat,       // children[0] repeated [min, max] times (max<0: ∞).
    kCharClass,    // `chars` bitset membership.
    kAnchorBegin,
    kAnchorEnd,
    kWordBoundary,
  };

  Kind kind;
  std::vector<std::unique_ptr<Node>> children;
  std::bitset<256> chars;
  int min = 0;
  int max = 0;
};

namespace {

using Node = Regex::Node;
using Kind = Node::Kind;

std::unique_ptr<Node> MakeNode(Kind kind) {
  auto node = std::make_unique<Node>();
  node->kind = kind;
  return node;
}

void AddClassShorthand(char c, std::bitset<256>* set) {
  switch (c) {
    case 'd':
      for (int ch = '0'; ch <= '9'; ++ch) set->set(static_cast<size_t>(ch));
      break;
    case 'w':
      for (int ch = '0'; ch <= '9'; ++ch) set->set(static_cast<size_t>(ch));
      for (int ch = 'a'; ch <= 'z'; ++ch) set->set(static_cast<size_t>(ch));
      for (int ch = 'A'; ch <= 'Z'; ++ch) set->set(static_cast<size_t>(ch));
      set->set('_');
      break;
    case 's':
      set->set(' ');
      set->set('\t');
      set->set('\n');
      set->set('\r');
      set->set('\f');
      set->set('\v');
      break;
    default:
      break;
  }
}

bool IsWordChar(char c) { return IsAsciiAlnum(c) || c == '_'; }

/// How a node's matches can begin: the bytes its first consumed character
/// can be, and whether it can match while consuming nothing. Anchors and
/// \b count as empty matches (they may fail, but never consume), so both
/// are over-approximations — safe for skipping start offsets.
struct StartSet {
  std::bitset<256> first;
  bool nullable = false;
};

StartSet StartOf(const Node* node) {
  StartSet out;
  switch (node->kind) {
    case Kind::kCharClass:
      out.first = node->chars;
      break;
    case Kind::kAnchorBegin:
    case Kind::kAnchorEnd:
    case Kind::kWordBoundary:
      out.nullable = true;
      break;
    case Kind::kAlternation:
      for (const auto& child : node->children) {
        StartSet alt = StartOf(child.get());
        out.first |= alt.first;
        out.nullable = out.nullable || alt.nullable;
      }
      break;
    case Kind::kConcat:
      // A child's first bytes count while everything before it can be
      // empty; the sequence is empty only if every child can be.
      out.nullable = true;
      for (const auto& child : node->children) {
        if (!out.nullable) break;
        StartSet next = StartOf(child.get());
        out.first |= next.first;
        out.nullable = next.nullable;
      }
      break;
    case Kind::kRepeat: {
      // x{0} matches only the empty string.
      if (node->max == 0) {
        out.nullable = true;
        break;
      }
      StartSet body = StartOf(node->children[0].get());
      out.first = body.first;
      out.nullable = node->min == 0 || body.nullable;
      break;
    }
  }
  return out;
}

class PatternParser {
 public:
  explicit PatternParser(std::string_view pattern) : pattern_(pattern) {}

  Result<std::unique_ptr<Node>> Parse() {
    NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, ParseAlternation());
    if (pos_ != pattern_.size()) {
      return Error("unexpected ')'");
    }
    return root;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(pos_) +
                              " in /" + std::string(pattern_) + "/");
  }

  bool AtEnd() const { return pos_ >= pattern_.size(); }
  char Peek() const { return pattern_[pos_]; }

  Result<std::unique_ptr<Node>> ParseAlternation() {
    auto alternation = MakeNode(Kind::kAlternation);
    NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> first, ParseConcat());
    alternation->children.push_back(std::move(first));
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> next, ParseConcat());
      alternation->children.push_back(std::move(next));
    }
    if (alternation->children.size() == 1) {
      return std::move(alternation->children[0]);
    }
    return alternation;
  }

  Result<std::unique_ptr<Node>> ParseConcat() {
    auto concat = MakeNode(Kind::kConcat);
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> atom, ParseQuantifiedAtom());
      concat->children.push_back(std::move(atom));
    }
    return concat;
  }

  Result<std::unique_ptr<Node>> ParseQuantifiedAtom() {
    NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> atom, ParseAtom());
    if (AtEnd()) return atom;
    int min = -1, max = -1;
    switch (Peek()) {
      case '*':
        min = 0;
        max = -1;
        ++pos_;
        break;
      case '+':
        min = 1;
        max = -1;
        ++pos_;
        break;
      case '?':
        min = 0;
        max = 1;
        ++pos_;
        break;
      case '{': {
        size_t save = pos_;
        ++pos_;
        int m = 0;
        bool has_digits = false;
        while (!AtEnd() && IsAsciiDigit(Peek())) {
          m = m * 10 + (Peek() - '0');
          has_digits = true;
          ++pos_;
        }
        if (!has_digits) {
          pos_ = save;  // Literal '{'.
          return atom;
        }
        min = m;
        max = m;
        if (!AtEnd() && Peek() == ',') {
          ++pos_;
          if (!AtEnd() && IsAsciiDigit(Peek())) {
            int n = 0;
            while (!AtEnd() && IsAsciiDigit(Peek())) {
              n = n * 10 + (Peek() - '0');
              ++pos_;
            }
            max = n;
          } else {
            max = -1;
          }
        }
        if (AtEnd() || Peek() != '}') return Error("expected '}'");
        ++pos_;
        break;
      }
      default:
        return atom;
    }
    if (max >= 0 && max < min) return Error("bad repeat range");
    // Quantifying an anchor is meaningless; reject for clarity.
    if (atom->kind == Kind::kAnchorBegin || atom->kind == Kind::kAnchorEnd ||
        atom->kind == Kind::kWordBoundary) {
      return Error("cannot quantify an anchor");
    }
    auto repeat = MakeNode(Kind::kRepeat);
    repeat->min = min;
    repeat->max = max;
    repeat->children.push_back(std::move(atom));
    return repeat;
  }

  Result<std::unique_ptr<Node>> ParseAtom() {
    char c = Peek();
    switch (c) {
      case '(': {
        ++pos_;
        NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> inner, ParseAlternation());
        if (AtEnd() || Peek() != ')') return Error("expected ')'");
        ++pos_;
        return inner;
      }
      case '^':
        ++pos_;
        return MakeNode(Kind::kAnchorBegin);
      case '$':
        ++pos_;
        return MakeNode(Kind::kAnchorEnd);
      case '[':
        return ParseClass();
      case '.': {
        ++pos_;
        auto any = MakeNode(Kind::kCharClass);
        any->chars.set();
        any->chars.reset('\n');
        return any;
      }
      case '\\':
        return ParseEscape();
      case '*':
      case '+':
      case '?':
        return Error("dangling quantifier");
      default: {
        ++pos_;
        auto literal = MakeNode(Kind::kCharClass);
        literal->chars.set(static_cast<unsigned char>(c));
        return literal;
      }
    }
  }

  Result<std::unique_ptr<Node>> ParseEscape() {
    ++pos_;  // Consume backslash.
    if (AtEnd()) return Error("trailing backslash");
    char c = Peek();
    ++pos_;
    if (c == 'b') return MakeNode(Kind::kWordBoundary);
    auto node = MakeNode(Kind::kCharClass);
    switch (c) {
      case 'd':
      case 'w':
      case 's':
        AddClassShorthand(c, &node->chars);
        return node;
      case 'D':
      case 'W':
      case 'S':
        AddClassShorthand(AsciiToLower(c), &node->chars);
        node->chars.flip();
        return node;
      case 'n':
        node->chars.set('\n');
        return node;
      case 't':
        node->chars.set('\t');
        return node;
      case 'r':
        node->chars.set('\r');
        return node;
      default:
        node->chars.set(static_cast<unsigned char>(c));
        return node;
    }
  }

  Result<std::unique_ptr<Node>> ParseClass() {
    ++pos_;  // Consume '['.
    auto node = MakeNode(Kind::kCharClass);
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      negate = true;
      ++pos_;
    }
    bool first = true;
    while (!AtEnd() && (Peek() != ']' || first)) {
      first = false;
      char lo = Peek();
      ++pos_;
      if (lo == '\\') {
        if (AtEnd()) return Error("trailing backslash in class");
        char esc = Peek();
        ++pos_;
        if (esc == 'd' || esc == 'w' || esc == 's') {
          AddClassShorthand(esc, &node->chars);
          continue;
        }
        if (esc == 'n') {
          node->chars.set('\n');
          continue;
        }
        if (esc == 't') {
          node->chars.set('\t');
          continue;
        }
        lo = esc;
      }
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < pattern_.size() &&
          pattern_[pos_ + 1] != ']') {
        ++pos_;  // '-'
        char hi = Peek();
        ++pos_;
        if (hi == '\\') {
          if (AtEnd()) return Error("trailing backslash in class");
          hi = Peek();
          ++pos_;
        }
        if (static_cast<unsigned char>(hi) < static_cast<unsigned char>(lo)) {
          return Error("bad class range");
        }
        for (int ch = static_cast<unsigned char>(lo);
             ch <= static_cast<unsigned char>(hi); ++ch) {
          node->chars.set(static_cast<size_t>(ch));
        }
      } else {
        node->chars.set(static_cast<unsigned char>(lo));
      }
    }
    if (AtEnd()) return Error("unterminated class");
    ++pos_;  // ']'
    if (negate) node->chars.flip();
    return node;
  }

  std::string_view pattern_;
  size_t pos_ = 0;
};

/// A non-owning reference to a continuation: "the rest of the pattern
/// from this text offset", returning true once the whole match succeeds.
/// Type-erased so the recursive matcher instantiates once.
class Continuation {
 public:
  template <class F>
    requires(!std::is_same_v<F, Continuation>)
  Continuation(const F& f)  // Implicit: callers pass lambdas.
      : fn_(&f), call_([](const void* fn, size_t pos) {
          return (*static_cast<const F*>(fn))(pos);
        }) {}

  bool operator()(size_t pos) const { return call_(fn_, pos); }

 private:
  const void* fn_;
  bool (*call_)(const void*, size_t);
};

/// Continuation-passing backtracker: Match(node, pos, k) tries every way
/// `node` can match at `pos` — alternatives in pattern order, repeats
/// greedily — and calls k with each end offset until k accepts. Every
/// node kind, at any nesting depth, goes through this one matcher, so
/// wrapping a pattern in parentheses never changes what it matches.
class Matcher {
 public:
  explicit Matcher(std::string_view text) : text_(text) {}

  bool Match(const Node* node, size_t pos, Continuation k) const {
    switch (node->kind) {
      case Kind::kAlternation:
        for (const auto& child : node->children) {
          if (Match(child.get(), pos, k)) return true;
        }
        return false;
      case Kind::kConcat:
        return MatchSeq(node, 0, pos, k);
      case Kind::kRepeat:
        return MatchRepeat(node, 0, pos, k);
      case Kind::kCharClass:
        return pos < text_.size() &&
               node->chars.test(static_cast<unsigned char>(text_[pos])) &&
               k(pos + 1);
      case Kind::kAnchorBegin:
        return pos == 0 && k(pos);
      case Kind::kAnchorEnd:
        return pos == text_.size() && k(pos);
      case Kind::kWordBoundary: {
        bool before = pos > 0 && IsWordChar(text_[pos - 1]);
        bool after = pos < text_.size() && IsWordChar(text_[pos]);
        return before != after && k(pos);
      }
    }
    return false;
  }

 private:
  /// Children of `concat` from index `i` at `pos`, then k.
  bool MatchSeq(const Node* concat, size_t i, size_t pos,
                Continuation k) const {
    if (i == concat->children.size()) return k(pos);
    return Match(concat->children[i].get(), pos,
                 [&](size_t next) { return MatchSeq(concat, i + 1, next, k); });
  }

  /// Greedy: one more body iteration first (when allowed), then k. A
  /// zero-width iteration is taken only while it counts toward the
  /// minimum (or as the first): past that it could only repeat forever.
  bool MatchRepeat(const Node* repeat, int count, size_t pos,
                   Continuation k) const {
    if (repeat->max < 0 || count < repeat->max) {
      auto more = [&](size_t next) {
        return (next != pos || count < std::max(repeat->min, 1)) &&
               MatchRepeat(repeat, count + 1, next, k);
      };
      if (Match(repeat->children[0].get(), pos, more)) return true;
    }
    return count >= repeat->min && k(pos);
  }

  std::string_view text_;
};

}  // namespace

Regex::Regex(std::string pattern, std::unique_ptr<Node> root)
    : pattern_(std::move(pattern)), root_(std::move(root)) {
  StartSet start = StartOf(root_.get());
  first_bytes_ = start.first;
  nullable_ = start.nullable;
}

Regex::~Regex() = default;
Regex::Regex(Regex&&) noexcept = default;
Regex& Regex::operator=(Regex&&) noexcept = default;

Result<Regex> Regex::Compile(std::string_view pattern) {
  PatternParser parser(pattern);
  NTW_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, parser.Parse());
  return Regex(std::string(pattern), std::move(root));
}

bool Regex::FullMatch(std::string_view text) const {
  // Backtracks through every alternative until one consumes the input.
  return Matcher(text).Match(root_.get(), 0,
                             [&](size_t end) { return end == text.size(); });
}

bool Regex::PartialMatch(std::string_view text) const {
  Matcher matcher(text);
  auto any_end = [](size_t) { return true; };
  for (size_t start = 0; start <= text.size(); ++start) {
    if (CanStartAt(text, start) && matcher.Match(root_.get(), start, any_end)) {
      return true;
    }
  }
  return false;
}

std::vector<Regex::Span> Regex::FindAll(std::string_view text) const {
  std::vector<Span> spans;
  Matcher matcher(text);
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = 0;
    auto first_end = [&](size_t e) {
      end = e;
      return true;
    };
    if (CanStartAt(text, start) &&
        matcher.Match(root_.get(), start, first_end)) {
      spans.push_back(Span{start, end});
      start = end > start ? end : start + 1;
    } else {
      ++start;
    }
    if (start > text.size()) break;
  }
  return spans;
}

}  // namespace ntw::regex
