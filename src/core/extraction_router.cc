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
  out.interpreted_views_.assign(out.interpreted_.begin(),
                                out.interpreted_.end());
  return out;
}

ExtractionRouter::SiteScan ExtractionRouter::ScanSite(
    const FusedSiteExtractor* fused, std::string_view page) const {
  SiteScan scan(this, page);
  if (fused == nullptr || !fused_enabled()) return scan;
  scan.fused_ = fused;
  StreamPageBuffer& buffer = *scan.page_.emplace(stream_buffers_.Acquire());
  FusedScratch& scratch = *scan.scratch_.emplace(fused_scratch_.Acquire());
  fused->ExtractAllStreaming(page, buffer, scratch);
  scan.tier_ = buffer.page.tier();
  return scan;
}

ExtractionRouter::Page ExtractionRouter::SiteScan::Extract(
    std::string_view name, const Wrapper& wrapper,
    const CompiledWrapper* compiled) {
  size_t index = fused_ == nullptr ? std::string_view::npos
                                   : fused_->FindAttribute(name);
  if (index == std::string_view::npos) {
    // Not automaton-covered (a tree plan, no compiled form, or no scan).
    return router_->Extract(wrapper, compiled, input_);
  }
  Page out;
  out.route_ = ExtractRoute::kStreamingDelimiter;
  out.tier_ = tier_;
  out.fused_ = true;
  out.values_ = &(*scratch_)->values[index];
  return out;
}

}  // namespace ntw::core
