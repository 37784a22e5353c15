// Shared plumbing for the perfbench workloads: command-line arguments,
// exact order statistics over raw samples, the metric report (human lines
// plus the final one-line JSON result) and small timing helpers.

#ifndef NTW_PERFBENCH_COMMON_H_
#define NTW_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/wrapper.h"

namespace perfbench {

/// `perfbench <prepare|setup|run> --workload W --seed N --seconds S
/// --trace 0|1 --dir WORK --trace-out FILE`. `prepare` writes the
/// workload's generated inputs and references into WORK (a separate
/// process, so corpus generation never shows in the measured process's
/// peak RSS); `setup` times one set-up in a fresh process and prints its
/// times (serve, crawl; `run` starts it); `run` gates and measures.
struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

/// Parses argv; prints usage and exits 2 on a malformed command line.
Args ParseArgs(int argc, char** argv);

/// Prints "perfbench: <message>" to stderr and exits 1 without a result
/// line — the exit path of every failed correctness gate.
[[noreturn]] void Fail(const std::string& message);

/// Steady-clock nanoseconds (process-local epoch).
int64_t NowNs();

/// CPU time of the calling thread, in nanoseconds.
int64_t ThreadCpuNs();

/// Peak resident set size of this process image, MiB.
double PeakRssMiB();

/// Runs this program again with `args` as its arguments (after the
/// program name), waits for it and returns its standard output; fails the
/// run if it does not exit 0.
std::string RunSelf(const std::vector<std::string>& args);

/// Exact order statistic: the nearest-rank q-quantile of the samples
/// (q in [0, 1]). `samples` is sorted in place. 0 for no samples.
double Quantile(std::vector<double>& samples, double q);
double Median(std::vector<double> samples);

/// A percentile and its value.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};

/// Streams per-operation latency samples into fixed windows by completion
/// time. Each whole window keeps its operation rate and its exact p50 and
/// p99 (from the window's raw samples); every sample also lands in a
/// 1 µs-bin histogram for the run's tail. Memory stays fixed however long
/// the run, so the benchmark's own buffers never show in peak RSS.
class LatencyRecorder {
 public:
  LatencyRecorder(int64_t start_ns, int64_t window_ns);

  void Add(int64_t done_ns, double latency_us);
  /// Closes every window that ended by `end_ns`; a partial last window
  /// is dropped.
  void Finish(int64_t end_ns);
  /// Adds a finished recorder's windows and samples (a later segment of
  /// the same run).
  void Merge(const LatencyRecorder& other);

  /// The q-quantile over the closed windows of the operation rate.
  double RateQuantile(double q) const {
    std::vector<double> rates = rates_;
    return Quantile(rates, q);
  }
  /// Medians over the closed windows of the windows' p50 and p99: a burst
  /// of interference from another tenant of the machine moves a few
  /// windows, not the result.
  double p50_us() const { return Median(p50s_); }
  double p99_us() const { return Median(p99s_); }
  size_t windows() const { return rates_.size(); }

  /// The highest percentile with at least ten samples beyond it (capped at
  /// p99.9), over every sample of the run.
  Tail TailOf() const;
  int64_t count() const { return count_; }

 private:
  static constexpr size_t kBins = 100000;  // 1 µs each, up to 100 ms.
  void CloseWindow();
  double Percentile(double q) const;

  int64_t start_ns_;
  int64_t window_ns_;
  int64_t current_ = 0;
  int64_t count_ = 0;
  std::vector<double> window_samples_;
  std::vector<double> rates_, p50s_, p99s_;
  std::vector<uint32_t> bins_;
  std::vector<double> overflow_;
};

/// Collects the run's metrics. Print() writes one human-readable line per
/// metric (name, value, unit, and what it should move) and then, as the
/// last line of stdout, the JSON result with the metrics the mode asks
/// for.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// A metric of the JSON result (an end-to-end metric in untraced runs,
  /// a per-layer metric in traced runs). `moves` names the end-to-end
  /// metric a per-layer metric should move.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& moves = "");
  /// A human-only line: the workload's own name for a metric, or a
  /// figure that is not part of the JSON result.
  void Line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void Text(const std::string& text);

  void Print(int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool json;
  };
  std::string workload_;
  std::vector<Entry> entries_;
  std::vector<std::string> text_;
};

/// The heap-DOM interpreter's values for one page: html::Parse plus
/// core::Wrapper::Extract, text in document order — the reference every
/// faster path is checked against.
std::vector<std::string> InterpretValues(const ntw::core::Wrapper& wrapper,
                                         const std::string& page_html);

/// `["v1","v2",...]` with the repository's JSON string escaping.
std::string JsonArray(const std::vector<std::string>& values);

/// Reads a file or fails the run.
std::string ReadOrFail(const std::string& path);
/// Writes a file (creating its directory) or fails the run.
void WriteOrFail(const std::string& path, const std::string& contents);

/// "nproc, build type, git sha, seed, ..." as one human line.
std::string MachineLine(const Args& args, const std::string& extra);

}  // namespace perfbench

#endif  // NTW_PERFBENCH_COMMON_H_
