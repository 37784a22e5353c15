#include "html/parser.h"

#include <array>
#include <string>
#include <vector>

#include "common/strings.h"
#include "html/parse_rules.h"
#include "html/tokenizer.h"

namespace ntw::html {

// Tags whose open instance is implicitly closed when a sibling of the same
// group starts. Modeled on the HTML5 "implied end tags" rules restricted to
// what listing pages actually use. Shared with the streaming scanners via
// parse_rules.h so the tree and the streams cannot drift.
bool CloseImpliedBy(std::string_view open, std::string_view incoming) {
  if (open == "li" && incoming == "li") return true;
  if (open == "option" && incoming == "option") return true;
  if (open == "p" &&
      (incoming == "p" || incoming == "div" || incoming == "table" ||
       incoming == "ul" || incoming == "ol" || incoming == "li" ||
       incoming == "h1" || incoming == "h2" || incoming == "h3" ||
       incoming == "h4" || incoming == "blockquote" || incoming == "pre")) {
    return true;
  }
  if ((open == "td" || open == "th") &&
      (incoming == "td" || incoming == "th" || incoming == "tr")) {
    return true;
  }
  if (open == "tr" && incoming == "tr") return true;
  if ((open == "thead" || open == "tbody" || open == "tfoot") &&
      (incoming == "thead" || incoming == "tbody" || incoming == "tfoot")) {
    return true;
  }
  if (open == "dt" && (incoming == "dt" || incoming == "dd")) return true;
  if (open == "dd" && (incoming == "dt" || incoming == "dd")) return true;
  return false;
}

// Elements that act as scope boundaries: an implied close never propagates
// past them.
bool IsScopeBoundary(std::string_view tag) {
  return tag == "table" || tag == "ul" || tag == "ol" || tag == "dl" ||
         tag == "div" || tag == "body" || tag == "html" || tag == "select";
}

namespace {

class TreeBuilder {
 public:
  TreeBuilder(const ParseOptions& options, Document* doc)
      : options_(options), doc_(doc) {
    open_.push_back(doc_->root());
  }

  void Feed(const Token& token) {
    switch (token.kind) {
      case TokenKind::kText:
        HandleText(token);
        break;
      case TokenKind::kStartTag:
        HandleStartTag(token);
        break;
      case TokenKind::kEndTag:
        HandleEndTag(token);
        break;
      case TokenKind::kComment:
      case TokenKind::kDoctype:
        break;  // Dropped, as the paper's tidy pipeline does.
    }
  }

 private:
  Node* top() { return open_.back(); }

  void HandleText(const Token& token) {
    std::string text = options_.collapse_whitespace
                           ? CollapseWhitespace(token.data)
                           : token.data;
    if (options_.skip_whitespace_text &&
        StripWhitespace(text).empty()) {
      return;
    }
    top()->AppendChild(Node::MakeText(std::move(text)));
  }

  void HandleStartTag(const Token& token) {
    // Apply implied end tags, bounded by scope boundaries.
    while (open_.size() > 1) {
      Node* current = top();
      if (!current->is_element()) break;
      if (IsScopeBoundary(current->tag())) break;
      if (!CloseImpliedBy(current->tag(), token.data)) break;
      open_.pop_back();
    }

    auto element = std::make_unique<Node>(token.data);
    for (const auto& [name, value] : token.attrs) {
      element->SetAttr(name, value);
    }
    Node* placed = top()->AppendChild(std::move(element));
    if (!IsVoidElementTag(token.data) && !token.self_closing) {
      open_.push_back(placed);
    }
  }

  void HandleEndTag(const Token& token) {
    // Find the nearest matching open element; if none, ignore the end tag.
    for (size_t i = open_.size(); i > 1; --i) {
      Node* candidate = open_[i - 1];
      if (candidate->is_element() && candidate->tag() == token.data) {
        open_.resize(i - 1);
        return;
      }
      // Do not let a stray end tag close past a table boundary.
      if (candidate->is_element() && candidate->tag() == "table" &&
          token.data != "table") {
        return;
      }
    }
  }

  const ParseOptions& options_;
  Document* doc_;
  std::vector<Node*> open_;
};

}  // namespace

Result<Document> Parse(std::string_view input, const ParseOptions& options) {
  Document doc;
  TreeBuilder builder(options, &doc);
  Tokenizer tokenizer(input);
  Token token;
  while (tokenizer.Next(&token)) {
    builder.Feed(token);
  }
  doc.Finalize();
  return doc;
}

Result<Document> Parse(std::string_view input) {
  return Parse(input, ParseOptions{});
}

}  // namespace ntw::html
