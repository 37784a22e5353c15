#include "core/compiled_wrapper.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/strings.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/xpath_inductor.h"
#include "html/name_table.h"
#include "html/parse_rules.h"
#include "xpath/ast.h"

namespace ntw::core {

StringSearcher::StringSearcher(std::string needle)
    : needle_(std::move(needle)) {
  size_t n = needle_.size();
  for (size_t i = 0; i < 256; ++i) skip_[i] = n;
  for (size_t i = 0; i + 1 < n; ++i) {
    skip_[static_cast<unsigned char>(needle_[i])] = n - 1 - i;
  }
}

size_t StringSearcher::Find(std::string_view haystack, size_t from) const {
  size_t n = needle_.size();
  if (n == 0) return from <= haystack.size() ? from : std::string_view::npos;
  if (from > haystack.size() || n > haystack.size() - from) {
    return std::string_view::npos;
  }
  size_t pos = from;
  size_t last = haystack.size() - n;
  while (pos <= last) {
    unsigned char tail = static_cast<unsigned char>(haystack[pos + n - 1]);
    if (tail == static_cast<unsigned char>(needle_[n - 1]) &&
        std::memcmp(haystack.data() + pos, needle_.data(), n - 1) == 0) {
      return pos;
    }
    pos += skip_[tail];
  }
  return std::string_view::npos;
}

std::shared_ptr<const CompiledWrapper> CompiledWrapper::Compile(
    const Wrapper& wrapper) {
  auto plan = std::make_shared<CompiledWrapper>();
  if (const auto* x = dynamic_cast<const XPathWrapper*>(&wrapper)) {
    plan->kind_ = Kind::kXPath;
    for (const xpath::Step& step : x->expr().steps) {
      StepOp op;
      op.descendant = step.axis == xpath::Axis::kDescendant;
      switch (step.test) {
        case xpath::NodeTest::kText:
          op.is_text = true;
          break;
        case xpath::NodeTest::kAnyElement:
          op.any_element = true;
          break;
        case xpath::NodeTest::kTag:
          op.tag_id = html::NameTable::Global().Intern(step.tag).id;
          break;
      }
      op.child_number = step.child_number.value_or(-1);
      for (const auto& [name, value] : step.attr_filters) {
        op.attr_filters.push_back({name, value});
      }
      plan->steps_.push_back(std::move(op));
    }
    plan->FinalizeXPath();
    return plan;
  }
  if (const auto* lr = dynamic_cast<const LrWrapper*>(&wrapper)) {
    plan->kind_ = Kind::kLr;
    plan->left_ = lr->left();
    plan->right_ = lr->right();
    plan->left_searcher_ = StringSearcher(plan->left_);
    return plan;
  }
  if (const auto* hlrt = dynamic_cast<const HlrtWrapper*>(&wrapper)) {
    plan->kind_ = Kind::kHlrt;
    plan->head_ = hlrt->head();
    plan->tail_ = hlrt->tail();
    plan->left_ = hlrt->left();
    plan->right_ = hlrt->right();
    plan->head_searcher_ = StringSearcher(plan->head_);
    plan->tail_searcher_ = StringSearcher(plan->tail_);
    plan->left_searcher_ = StringSearcher(plan->left_);
    return plan;
  }
  return nullptr;  // Unknown kind: caller falls back to the interpreter.
}

void CompiledWrapper::FinalizeXPath() {
  // Bitset budget: bit j means "matched the first j steps" (bit 0 is the
  // document root's free match), so a program needs steps_.size() + 1
  // bits out of the 64 available. An empty program selects the document
  // root itself — a node the event machine never materializes — so it
  // goes to the interpreter.
  streamable_ = !steps_.empty() && steps_.size() < 64;
  if (!streamable_) return;
  for (size_t j = 0; j < steps_.size(); ++j) {
    const StepOp& step = steps_[j];
    (step.descendant ? desc_steps_ : child_steps_) |= uint64_t{1} << j;
    if (!step.is_text && !step.any_element && step.child_number >= 0 &&
        std::find(positional_tag_ids_.begin(), positional_tag_ids_.end(),
                  step.tag_id) == positional_tag_ids_.end()) {
      positional_tag_ids_.push_back(step.tag_id);
    }
  }
}

const char* CompiledWrapper::plan_kind() const {
  switch (kind_) {
    case Kind::kXPath:
      return "xpath";
    case Kind::kLr:
      return "lr";
    case Kind::kHlrt:
      return "hlrt";
  }
  return "unknown";
}

void CompiledWrapper::ExtractStreaming(
    std::string_view raw_page, StreamPageBuffer& buffer,
    std::vector<std::string_view>* values) const {
  values->clear();
  if (kind_ == Kind::kXPath) {
    // Fused tokenize→plan-execute; an unstreamable plan (>63 steps or
    // empty) needs the heap DOM — callers route it to the interpreter.
    if (streamable_) ExtractXPathStreaming(raw_page, buffer, values);
    return;
  }
  buffer.page.Build(raw_page);
  MatchStream(buffer.page, values);
}

void CompiledWrapper::MatchStream(
    const html::StreamPage& page,
    std::vector<std::string_view>* values) const {
  if (kind_ == Kind::kLr) {
    MatchLr(page.stream(), page.spans(), values);
  } else if (kind_ == Kind::kHlrt) {
    MatchHlrt(page.stream(), page.spans(), values);
  }
}

// The fused streaming XPath executor: an NFA-style bitset machine run
// directly against the tokenizer event stream, mirroring xpath::Evaluate's
// step semantics and the heap tree builder's event handling (implied end
// tags, nearest-match closes with the table boundary, void/self-closing
// elements, whitespace-only text skipping) without materializing a node.
//
// Per open element, `match` bit j says "this node matches the first j
// steps" (bit 0 belongs to the document root alone) and `anc` is the
// union of every ancestor's match bits. A new node's candidate steps are
//   (parent.match & child_steps_) | ((parent.match|anc) & desc_steps_)
// — the child axis needs the parent itself to hold bit j, the descendant
// axis any ancestor. Passing step j's test sets bit j+1 on the node;
// reaching bit steps_.size() is an accept, recorded at the open event,
// which is exactly ascending pre-order — the interpreter's result order —
// and each node is tested once, so no dedup marks are needed.
//
// Accepted elements extract the empty string (as in the interpreter); an
// accepted text node is the only thing ever copied: its collapsed bytes
// go into the capture buffer via the same AppendCollapsedText the
// StreamPage tiers splice with. Values materialize after the scan so
// capture reallocation cannot dangle the views.
namespace {

/// Interned-id mirror of IsVoidElementTag and the CloseImpliedBy "open"
/// set: the fused executor classifies each tag once by id instead of
/// re-running the byte-comparison rule functions per event. Ids are
/// global-NameTable stable, so this is built once per process.
struct StreamTagIds {
  std::array<int32_t, 14> voids;
  std::array<int32_t, 11> may_imply;

  bool IsVoid(int32_t id) const {
    for (int32_t v : voids) {
      if (v == id) return true;
    }
    return false;
  }
  bool MayImplyClose(int32_t id) const {
    for (int32_t v : may_imply) {
      if (v == id) return true;
    }
    return false;
  }

  static const StreamTagIds& Get() {
    static const StreamTagIds ids = [] {
      html::NameTable& names = html::NameTable::Global();
      auto id = [&](std::string_view tag) { return names.Intern(tag).id; };
      StreamTagIds t;
      t.voids = {id("area"), id("base"), id("br"), id("col"), id("embed"),
                 id("hr"), id("img"), id("input"), id("link"), id("meta"),
                 id("param"), id("source"), id("track"), id("wbr")};
      t.may_imply = {id("li"), id("option"), id("p"), id("td"), id("th"),
                     id("tr"), id("thead"), id("tbody"), id("tfoot"),
                     id("dt"), id("dd")};
      return t;
    }();
    return ids;
  }
};

}  // namespace

void CompiledWrapper::ExtractXPathStreaming(
    std::string_view raw_page, StreamPageBuffer& buffer,
    std::vector<std::string_view>* values) const {
  std::vector<StreamXPathFrame>& frames = buffer.xframes_;
  std::string& capture = buffer.xcapture_;
  std::vector<std::pair<size_t, size_t>>& extents = buffer.xextents_;
  capture.clear();
  extents.clear();

  const StreamTagIds& tag_ids = StreamTagIds::Get();
  size_t depth = 0;
  auto push_frame = [&](std::string_view tag, int32_t tag_id, uint64_t match,
                        uint64_t anc, bool may_imply_close) {
    if (frames.size() <= depth) frames.emplace_back();
    StreamXPathFrame& f = frames[depth++];
    f.tag = tag;
    f.tag_id = tag_id;
    f.match = match;
    f.anc = anc;
    f.children = 0;
    f.may_imply_close = may_imply_close;
    f.tag_counts.clear();
  };
  push_frame(std::string_view(), -1, uint64_t{1}, 0, false);  // Doc root.

  const uint64_t accept = uint64_t{1} << steps_.size();
  const StepOp& last = steps_.back();
  const size_t last_bit = steps_.size() - 1;
  constexpr size_t kElement = std::string_view::npos;
  html::NameTable& names = html::NameTable::Global();
  html::Token& token = buffer.xtoken_;
  html::Tokenizer tokenizer(raw_page);

  while (tokenizer.Next(&token)) {
    switch (token.kind) {
      case html::TokenKind::kText: {
        // Whitespace-only text is skipped before any counter moves
        // (skip_whitespace_text), so test cheaply on the raw bytes.
        bool all_space = true;
        for (char c : token.data) {
          if (!IsAsciiSpace(c)) {
            all_space = false;
            break;
          }
        }
        if (all_space) break;
        StreamXPathFrame& parent = frames[depth - 1];
        int32_t sibling_index = parent.children++;
        // Text has no children, so a text node matching any step short
        // of the last is inert — only the final step can emit here.
        if (!last.is_text) break;
        uint64_t avail =
            last.descendant ? (parent.match | parent.anc) : parent.match;
        if (((avail >> last_bit) & 1) == 0) break;
        // FindAttr on a text node is null: any attr filter fails it; a
        // positional filter counts all siblings (sibling_index, 1-based).
        if (!last.attr_filters.empty()) break;
        if (last.child_number >= 0 && sibling_index + 1 != last.child_number) {
          break;
        }
        size_t begin = capture.size();
        html::AppendCollapsedText(token.data, &capture);
        extents.emplace_back(begin, capture.size());
        break;
      }
      case html::TokenKind::kStartTag: {
        // Implied end tags — the builder's loop, popping frames instead
        // of closing nodes. may_imply_close subsumes the IsScopeBoundary
        // break: boundary tags never imply-close.
        while (depth > 1 && frames[depth - 1].may_imply_close &&
               html::CloseImpliedBy(frames[depth - 1].tag, token.data)) {
          --depth;
        }
        html::NameTable::Interned tag = names.Intern(token.data);
        StreamXPathFrame& parent = frames[depth - 1];
        int32_t sibling_index = parent.children++;
        // Same-tag child number among element siblings (XPath tag[k]) —
        // maintained only for tags a tag[k] step names; nothing else
        // ever reads the count.
        int32_t same_tag = 0;
        for (int32_t tracked : positional_tag_ids_) {
          if (tracked != tag.id) continue;
          for (auto& [tid, c] : parent.tag_counts) {
            if (tid == tag.id) {
              same_tag = ++c;
              break;
            }
          }
          if (same_tag == 0) {
            parent.tag_counts.emplace_back(tag.id, 1);
            same_tag = 1;
          }
          break;
        }
        uint64_t match = 0;
        uint64_t cand = (parent.match & child_steps_) |
                        ((parent.match | parent.anc) & desc_steps_);
        while (cand != 0) {
          size_t j = static_cast<size_t>(std::countr_zero(cand));
          cand &= cand - 1;
          const StepOp& step = steps_[j];
          if (step.is_text) continue;
          if (!step.any_element && step.tag_id != tag.id) continue;
          if (step.child_number >= 0) {
            int32_t number =
                step.any_element ? sibling_index + 1 : same_tag;
            if (number != step.child_number) continue;
          }
          bool ok = true;
          for (const StepOp::AttrFilter& f : step.attr_filters) {
            // Duplicate attribute names keep the last value (SetAttr
            // overwrites in place), so the backward scan's first hit is
            // the effective one; the tokenizer already lowercased the
            // names, so this is a raw byte compare — no interning.
            const std::string* effective = nullptr;
            for (size_t a = token.attrs.size(); a > 0; --a) {
              if (token.attrs[a - 1].first == f.name) {
                effective = &token.attrs[a - 1].second;
                break;
              }
            }
            if (effective == nullptr || *effective != f.value) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          match |= uint64_t{1} << (j + 1);
        }
        if ((match & accept) != 0) extents.emplace_back(kElement, kElement);
        if (tag_ids.IsVoid(tag.id) || token.self_closing) break;
        // push_frame may grow `frames`, invalidating `parent` — read the
        // inherited bits out first.
        uint64_t parent_match = parent.match;
        uint64_t parent_anc = parent.anc;
        push_frame(tag.name, tag.id, match, parent_match | parent_anc,
                   tag_ids.MayImplyClose(tag.id));
        break;
      }
      case html::TokenKind::kEndTag: {
        // Nearest matching open element closes everything above it; a
        // stray end tag never crosses a table boundary (and an entirely
        // unmatched one is dropped).
        for (size_t i = depth; i > 1; --i) {
          if (frames[i - 1].tag == token.data) {
            depth = i - 1;
            break;
          }
          if (frames[i - 1].tag == "table" && token.data != "table") break;
        }
        break;
      }
      case html::TokenKind::kComment:
      case html::TokenKind::kDoctype:
        break;  // Dropped, as the tidy pipeline does.
    }
  }

  values->reserve(values->size() + extents.size());
  std::string_view cap(capture);
  for (const auto& [begin, end] : extents) {
    values->push_back(begin == kElement ? std::string_view()
                                        : cap.substr(begin, end - begin));
  }
}

bool CompiledWrapper::SpanMatchesLr(std::string_view stream, size_t begin,
                                    size_t end) const {
  if (begin < left_.size()) return false;
  if (std::memcmp(stream.data() + (begin - left_.size()), left_.data(),
                  left_.size()) != 0) {
    return false;
  }
  if (right_.size() > stream.size() - end) return false;
  return std::memcmp(stream.data() + end, right_.data(), right_.size()) == 0;
}

void CompiledWrapper::MatchLr(std::string_view stream,
                              const std::vector<html::StreamSpan>& spans,
                              std::vector<std::string_view>* values) const {
  if (left_.empty()) {
    for (const auto& span : spans) {
      if (SpanMatchesLr(stream, span.begin, span.end)) {
        values->push_back(stream.substr(span.begin, span.end - span.begin));
      }
    }
    return;
  }
  // Occurrence-driven: every matching span's begin coincides with the end of
  // a left-delimiter occurrence, so scan occurrences (BMH) and binary-merge
  // against the span list instead of memcmp-ing every span.
  size_t si = 0;
  size_t pos = 0;
  while (si < spans.size()) {
    pos = left_searcher_.Find(stream, pos);
    if (pos == std::string_view::npos) break;
    size_t anchor = pos + left_.size();
    while (si < spans.size() && spans[si].begin < anchor) ++si;
    for (size_t j = si; j < spans.size() && spans[j].begin == anchor; ++j) {
      const auto& span = spans[j];
      if (right_.size() <= stream.size() - span.end &&
          std::memcmp(stream.data() + span.end, right_.data(),
                      right_.size()) == 0) {
        values->push_back(stream.substr(span.begin, span.end - span.begin));
      }
    }
    ++pos;
  }
}

void CompiledWrapper::MatchHlrt(std::string_view stream,
                                const std::vector<html::StreamSpan>& spans,
                                std::vector<std::string_view>* values) const {
  // Region, exactly as hlrt_inductor.cc: after the first head occurrence,
  // before the first tail occurrence after that; no head occurrence → {0,0}.
  size_t begin = 0;
  size_t end = stream.size();
  bool no_region = false;
  if (!head_.empty()) {
    size_t pos = head_searcher_.Find(stream, 0);
    if (pos == std::string_view::npos) {
      begin = 0;
      end = 0;
      no_region = true;  // Head absent: Region() is {0,0}, tail not searched.
    } else {
      begin = pos + head_.size();
    }
  }
  if (!no_region && !tail_.empty()) {
    size_t pos = tail_searcher_.Find(stream, begin);
    if (pos != std::string_view::npos) end = pos;
  }
  for (const auto& span : spans) {
    if (span.begin < begin || span.end > end) continue;
    if (SpanMatchesLr(stream, span.begin, span.end)) {
      values->push_back(stream.substr(span.begin, span.end - span.begin));
    }
  }
}

}  // namespace ntw::core
