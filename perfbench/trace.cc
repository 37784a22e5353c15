#include "trace.h"

#include <cstdio>
#include <unordered_map>

#include "common.h"
#include "common/strings.h"

namespace perfbench {

namespace {

// Span ids are (buffer index + 1) << 40 | (slot + 1), so 0 is "none".
constexpr int kIdShift = 40;

}  // namespace

uint64_t Tracer::Buffer::Open(const char* name, uint64_t request_id,
                              uint64_t parent, int64_t start_ns) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return 0;
  }
  uint64_t id = id_base_ | (spans_.size() + 1);
  spans_.push_back(Span{name, request_id == 0 ? id : request_id, parent,
                        start_ns, start_ns});
  return id;
}

void Tracer::Buffer::Close(uint64_t id, int64_t end_ns) {
  if (id == 0) return;
  spans_[(id & ((uint64_t{1} << kIdShift) - 1)) - 1].end_ns = end_ns;
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<Buffer>();
  buffer->id_base_ = static_cast<uint64_t>(buffers_.size() + 1) << kIdShift;
  buffer->cap_ = cap_;
  buffer->spans_.reserve(cap_ < 4096 ? cap_ : 4096);
  buffers_.push_back(std::move(buffer));
  return buffers_.back().get();
}

uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans_.size();
  return n;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped_;
  return n;
}

std::map<std::string, Tracer::LayerTime> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Time each span's children cover. Children of one parent never overlap
  // (each parent's children run one after another), so their durations
  // add up.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->spans_.size(); ++i) {
      const Span& s = b->spans_[i];
      double total = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      auto it = child_ns.find(b->id_base_ | (i + 1));
      double covered =
          it == child_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e3;
      auto& [totals, selfs] = by_name[s.name];
      totals.push_back(total);
      selfs.push_back(total - covered);
    }
  }
  std::map<std::string, LayerTime> out;
  for (auto& [name, samples] : by_name) {
    LayerTime& t = out[name];
    t.count = static_cast<int64_t>(samples.first.size());
    t.median_us = Median(std::move(samples.first));
    t.self_median_us = Median(std::move(samples.second));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            size_t per_buffer) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->spans_.size() && i < per_buffer; ++i) {
      const Span& s = b->spans_[i];
      std::fprintf(out,
                   "{\"id\":%llu,\"name\":\"%s\",\"request\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(b->id_base_ | (i + 1)),
                   s.name, static_cast<unsigned long long>(s.request_id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

void ReportSpans(const Tracer& tracer, const std::string& path,
                 Report* report) {
  for (const auto& [name, t] : tracer.Summarize()) {
    report->Line("self " + name, t.self_median_us, "us",
                 ntw::StrFormat("median of %lld spans; total %.3f us",
                                static_cast<long long>(t.count), t.median_us));
  }
  report->Line("trace.spans", static_cast<double>(tracer.span_count()),
               "count",
               ntw::StrFormat("%llu dropped", static_cast<unsigned long long>(
                                                  tracer.dropped())));
  if (!path.empty() && !tracer.WriteJsonLines(path, 20000)) {
    Fail("cannot write " + path);
  }
}

}  // namespace perfbench
