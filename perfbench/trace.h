// In-memory span recorder for traced runs. Spans are recorded around the
// benchmark's own calls into each layer's public functions (the library
// itself is not instrumented), kept in per-thread buffers, and written out
// as JSON lines when the run ends.

#ifndef NTW_PERFBENCH_TRACE_H_
#define NTW_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;     // A string literal.
    uint64_t request_id;  // Shared by every span of one operation.
    uint64_t parent;      // Span id of the cause; 0 for a root.
    int64_t start_ns;
    int64_t end_ns;
  };

  /// One thread's spans; only its owner thread records into it.
  class Buffer {
   public:
    /// Starts a span and returns its id, or 0 once the buffer is full (the
    /// span is then dropped and counted). A `request_id` of 0 makes the
    /// span a request root: its request id is its own id.
    uint64_t Open(const char* name, uint64_t request_id, uint64_t parent,
                  int64_t start_ns);
    /// Ends a span Open() returned; 0 is ignored.
    void Close(uint64_t id, int64_t end_ns);
    /// Open + Close of a span timed by the caller.
    uint64_t Record(const char* name, uint64_t request_id, uint64_t parent,
                    int64_t start_ns, int64_t end_ns) {
      uint64_t id = Open(name, request_id, parent, start_ns);
      Close(id, end_ns);
      return id;
    }

   private:
    friend class Tracer;
    uint64_t id_base_ = 0;
    size_t cap_ = 0;
    uint64_t dropped_ = 0;
    std::vector<Span> spans_;
  };

  /// `cap` bounds the spans each buffer keeps.
  explicit Tracer(size_t cap) : cap_(cap) {}

  /// A new buffer owned by the tracer; thread-safe.
  Buffer* NewBuffer();

  /// Per span name: count and median duration / self time (duration minus
  /// the part its child spans cover), in microseconds.
  struct LayerTime {
    int64_t count = 0;
    double median_us = 0.0;
    double self_median_us = 0.0;
  };
  std::map<std::string, LayerTime> Summarize() const;

  uint64_t span_count() const;
  uint64_t dropped() const;

  /// Writes the first `per_buffer` spans of each buffer as one JSON object
  /// per line (so the file stays a few MB); false on I/O error.
  bool WriteJsonLines(const std::string& path, size_t per_buffer) const;

 private:
  size_t cap_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Adds each span name's median self time (and total) and the span count
/// to `report`, then writes a prefix of the spans to `path` when it is not
/// empty.
void ReportSpans(const Tracer& tracer, const std::string& path,
                 Report* report);

}  // namespace perfbench

#endif  // NTW_PERFBENCH_TRACE_H_
