#include "core/extraction_router.h"

#include <utility>

#include "html/parser.h"

namespace ntw::core {

ExtractionRouter::Page ExtractionRouter::Extract(
    const Wrapper& wrapper, const CompiledWrapper* compiled,
    std::string_view page) const {
  Page out;
  if (!options_.fast_path) {
    out.fallback_ = StreamingFallback::kDisabled;
  } else if (compiled == nullptr) {
    out.fallback_ = StreamingFallback::kNoPlan;
  } else if (compiled->dom_free() || compiled->streamable()) {
    // No DOM: BMH over the StreamPage for delimiter plans, the fused
    // tokenize→plan-execute machine for XPath programs.
    out.route_ = compiled->dom_free() ? ExtractRoute::kStreamingDelimiter
                                      : ExtractRoute::kStreamingXPath;
    StreamPageBuffer& buffer = *out.stream_.emplace(stream_buffers_.Acquire());
    compiled->ExtractStreaming(page, buffer, &buffer.values);
    out.tier_ = buffer.page.tier();
    out.values_ = &buffer.values;
    return out;
  } else {
    out.fallback_ = StreamingFallback::kUnstreamableXPath;
  }

  // The reference path the streaming routes are byte-identical to.
  out.route_ = ExtractRoute::kInterpreter;
  Result<html::Document> doc = html::Parse(page);
  if (!doc.ok()) return out;
  PageSet pages;
  pages.AddPage(std::move(*doc));
  NodeSet extraction = wrapper.Extract(pages);
  out.interpreted_.reserve(extraction.size());
  for (const NodeRef& ref : extraction) {
    const html::Node* node = pages.Resolve(ref);
    if (node != nullptr) out.interpreted_.push_back(node->text());
  }
  // Views into the strings stay valid when the Page moves: moving the
  // vector keeps its elements where they are.
  out.views_.assign(out.interpreted_.begin(), out.interpreted_.end());
  return out;
}

ExtractionRouter::Page ExtractionRouter::SiteScan::Extract(
    const Wrapper& wrapper, const CompiledWrapper* compiled) {
  if (!router_->options_.fast_path || compiled == nullptr ||
      !compiled->dom_free()) {
    return router_->Extract(wrapper, compiled, input_);
  }
  Page out;
  out.route_ = ExtractRoute::kStreamingDelimiter;
  out.shared_stream_ = built();
  if (!built()) {
    page_.emplace(router_->stream_buffers_.Acquire());
    (*page_)->page.Build(input_);
  }
  const html::StreamPage& stream = (*page_)->page;
  out.tier_ = stream.tier();
  compiled->MatchStream(stream, &out.views_);
  return out;
}

}  // namespace ntw::core
