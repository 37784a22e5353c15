#include "common.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string_view>
#include <thread>

#include "common/build_info.h"
#include "common/file_util.h"
#include "common/strings.h"
#include "core/label.h"
#include "html/parser.h"
#include "obs/json.h"

namespace perfbench {

namespace {

constexpr char kUsage[] =
    "usage: perfbench <prepare|setup|run> --workload serve|crawl|learn\n"
    "                 --seed N --seconds S --trace 0|1 --dir WORK\n"
    "                 [--trace-out FILE]\n";

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) Usage("missing mode");
  args.mode = argv[1];
  if (args.mode != "prepare" && args.mode != "setup" && args.mode != "run") {
    Usage("unknown mode '" + args.mode + "'");
  }
  for (int i = 2; i < argc; i += 2) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("flag " + std::string(flag) + " needs a value");
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + std::string(flag));
    }
  }
  if (args.workload != "serve" && args.workload != "crawl" &&
      args.workload != "learn") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.dir.empty()) Usage("--dir is required");
  return args;
}

void Fail(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMiB() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // would report the launching process's footprint when that is larger.
  std::string status = ReadOrFail("/proc/self/status");
  size_t at = status.find("VmHWM:");
  if (at == std::string::npos) Fail("no VmHWM in /proc/self/status");
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // KiB.
}

std::string RunSelf(const std::vector<std::string>& args) {
  std::vector<std::string> argv_storage = {"perfbench"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) Fail("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t child = 0;
  const int spawned = ::posix_spawn(&child, "/proc/self/exe", &actions,
                                    nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (spawned != 0) {
    ::close(fds[0]);
    Fail("cannot start a child process");
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  pid_t waited;
  do {
    waited = ::waitpid(child, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != child || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("child process '" + args.front() + "' failed");
  }
  return out;
}

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) { return Quantile(samples, 0.5); }

LatencyRecorder::LatencyRecorder(int64_t start_ns, int64_t window_ns)
    : start_ns_(start_ns), window_ns_(window_ns), bins_(kBins, 0) {}

void LatencyRecorder::Add(int64_t done_ns, double latency_us) {
  const int64_t window = (done_ns - start_ns_) / window_ns_;
  while (current_ < window) CloseWindow();
  window_samples_.push_back(latency_us);
  ++count_;
  if (latency_us < static_cast<double>(kBins)) {
    ++bins_[static_cast<size_t>(latency_us)];
  } else {
    overflow_.push_back(latency_us);
  }
}

void LatencyRecorder::Finish(int64_t end_ns) {
  const int64_t whole = (end_ns - start_ns_) / window_ns_;
  while (current_ < whole) CloseWindow();
  window_samples_.clear();
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  rates_.insert(rates_.end(), other.rates_.begin(), other.rates_.end());
  p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
  p99s_.insert(p99s_.end(), other.p99s_.begin(), other.p99s_.end());
  for (size_t bin = 0; bin < kBins; ++bin) bins_[bin] += other.bins_[bin];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

void LatencyRecorder::CloseWindow() {
  rates_.push_back(static_cast<double>(window_samples_.size()) * 1e9 /
                   static_cast<double>(window_ns_));
  if (window_samples_.empty()) {
    // Nothing completed: a stall the length of the window.
    p50s_.push_back(static_cast<double>(window_ns_) / 1e3);
    p99s_.push_back(static_cast<double>(window_ns_) / 1e3);
  } else {
    p50s_.push_back(Quantile(window_samples_, 0.50));
    p99s_.push_back(Quantile(window_samples_, 0.99));
  }
  window_samples_.clear();
  ++current_;
}

double LatencyRecorder::Percentile(double q) const {
  const int64_t rank = static_cast<int64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  int64_t seen = 0;
  for (size_t bin = 0; bin < kBins; ++bin) {
    seen += bins_[bin];
    if (seen >= rank) return static_cast<double>(bin) + 0.5;
  }
  std::vector<double> rest = overflow_;
  std::sort(rest.begin(), rest.end());
  size_t index = static_cast<size_t>(rank - seen - 1);
  return rest.empty() ? 0.0 : rest[std::min(index, rest.size() - 1)];
}

Tail LatencyRecorder::TailOf() const {
  Tail tail;
  if (count_ == 0) return tail;
  const double n = static_cast<double>(count_);
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the nearest-rank percentile.
    if (n - std::ceil(pct / 100.0 * n) >= 10.0 || pct == 50.0) {
      tail.pct = pct;
      tail.value = Percentile(pct / 100.0);
      break;
    }
  }
  return tail;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& moves) {
  entries_.push_back(Entry{name, value, unit, moves, true});
}

void Report::Line(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note, false});
}

void Report::Text(const std::string& text) { text_.push_back(text); }

void Report::Print(int64_t attempted, int64_t failed) const {
  for (const std::string& text : text_) {
    std::printf("[%s] %s\n", workload_.c_str(), text.c_str());
  }
  for (const Entry& e : entries_) {
    std::string note;
    if (!e.note.empty()) {
      note = e.json ? "  (moves " + e.note + ")" : "  (" + e.note + ")";
    }
    std::printf("[%s] %-44s %16.6f %-8s%s\n", workload_.c_str(),
                e.name.c_str(), e.value, e.unit.c_str(), note.c_str());
  }
  std::printf("[%s] %-44s %16lld\n[%s] %-44s %16lld\n", workload_.c_str(),
              "operations_attempted", static_cast<long long>(attempted),
              workload_.c_str(), "operations_failed",
              static_cast<long long>(failed));
  // Written by hand rather than with obs::JsonWriter so every value keeps
  // all 17 significant digits. Names and units are plain ASCII.
  std::string json = ntw::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      failed == 0 ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.json) continue;
    if (!std::isfinite(e.value)) Fail("metric " + e.name + " is not finite");
    json += ntw::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           first ? "" : ", ", e.name.c_str(), e.value,
                           e.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<std::string> InterpretValues(const ntw::core::Wrapper& wrapper,
                                         const std::string& page_html) {
  ntw::Result<ntw::html::Document> doc = ntw::html::Parse(page_html);
  if (!doc.ok()) Fail("reference parse failed: " + doc.status().ToString());
  ntw::core::PageSet pages;
  pages.AddPage(std::move(*doc));
  std::vector<std::string> values;
  for (const ntw::core::NodeRef& ref : wrapper.Extract(pages)) {
    const ntw::html::Node* node = pages.Resolve(ref);
    if (node != nullptr) values.push_back(node->text());
  }
  return values;
}

std::string JsonArray(const std::vector<std::string>& values) {
  ntw::obs::JsonWriter json;
  json.BeginArray();
  for (const std::string& value : values) json.String(value);
  json.EndArray();
  return json.Take();
}

std::string ReadOrFail(const std::string& path) {
  ntw::Result<std::string> contents = ntw::ReadFile(path);
  if (!contents.ok()) Fail(contents.status().ToString());
  return std::move(*contents);
}

void WriteOrFail(const std::string& path, const std::string& contents) {
  size_t slash = path.rfind('/');
  if (slash != std::string::npos && slash > 0) {
    ntw::Status made = ntw::MakeDirs(path.substr(0, slash));
    if (!made.ok()) Fail(made.ToString());
  }
  ntw::Status wrote = ntw::WriteFile(path, contents);
  if (!wrote.ok()) Fail(wrote.ToString());
}

std::string MachineLine(const Args& args, const std::string& extra) {
  ntw::BuildInfo info = ntw::GetBuildInfo();
  return ntw::StrFormat(
      "machine: nproc=%u build_type=%s git_sha=%s seed=%llu seconds=%g "
      "trace=%d %s",
      std::thread::hardware_concurrency(), info.build_type.c_str(),
      info.git_sha.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, extra.c_str());
}

}  // namespace perfbench
