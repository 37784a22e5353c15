// Tokenizer / scanner microbenchmarks (google-benchmark): the byte-class
// scanning loops the SIMD dispatch accelerates, measured scalar vs vector
// on the same inputs so the speedup is directly visible in bytes/sec —
// plus the two consumers that sit on top of them: the Tokenizer and the
// StreamPage build, on a representative serialized dealer page.
// FindTextSpecial is scalar on every target, so it has no _scalar twin.
//
// Run with NTW_NO_SIMD=1 to pin everything scalar; the *_scalar variants
// below force it per-benchmark via scan::ForceScalar(), so a single
// default run already reports both sides.
//
// `--out PATH` writes the runs as a schema-stamped ntw-scan-bench JSON
// document (BENCH_scan.json in CI) with dispatched-vs-scalar speedups;
// `--smoke` shortens every benchmark to a CI-sized sanity run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/build_info.h"
#include "common/file_util.h"
#include "common/obs_export.h"
#include "datasets/dealers.h"
#include "html/scan.h"
#include "html/serializer.h"
#include "html/stream_page.h"
#include "html/tokenizer.h"
#include "obs/json.h"

namespace {

using namespace ntw;

// One fixed dealer site shared by all benchmarks (generated once). 30
// records per page ≈ the serving benchmark's listing-page workload.
std::string DealerPageHtml() {
  static const std::string* source = [] {
    datasets::DealersConfig config;
    config.num_sites = 1;
    config.min_records = 30;
    config.max_records = 30;
    datasets::Dataset dealers = datasets::MakeDealers(config);
    return new std::string(
        html::Serialize(dealers.sites[0].site.pages.page(0).root()));
  }();
  return *source;
}

// A long text-like run with rare specials: the case the vector loops are
// built for (whole 16-byte blocks skipped per iteration).
std::string SparseText() {
  std::string text;
  while (text.size() < 64 * 1024) {
    text.append("Lorem ipsum dolor sit amet consectetur adipiscing elit ");
    text.append("sed&do eiusmod<tempor ");
  }
  return text;
}

/// Scoped scalar pin: benchmarks suffixed _scalar run inside one of these
/// so the dispatched scan::Find* calls hit the table-driven loops.
class ScopedScalar {
 public:
  ScopedScalar() { html::scan::ForceScalar(true); }
  ~ScopedScalar() { html::scan::ForceScalar(false); }
};

template <size_t (*Find)(std::string_view, size_t)>
void ScanAll(benchmark::State& state, const std::string& input) {
  for (auto _ : state) {
    size_t hits = 0;
    size_t pos = 0;
    while ((pos = Find(input, pos)) != std::string_view::npos) {
      ++hits;
      ++pos;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}

void BM_ScanTextSpecial(benchmark::State& state) {
  ScanAll<&html::scan::FindTextSpecial>(state, SparseText());
}
BENCHMARK(BM_ScanTextSpecial);

void BM_ScanLtOrAmp(benchmark::State& state) {
  ScanAll<&html::scan::FindLtOrAmp>(state, SparseText());
}
BENCHMARK(BM_ScanLtOrAmp);

void BM_ScanLtOrAmp_scalar(benchmark::State& state) {
  ScopedScalar scalar;
  ScanAll<&html::scan::FindLtOrAmp>(state, SparseText());
}
BENCHMARK(BM_ScanLtOrAmp_scalar);

void TokenizeAll(benchmark::State& state, const std::string& input) {
  html::Token token;
  for (auto _ : state) {
    size_t tokens = 0;
    html::Tokenizer tokenizer(input);
    while (tokenizer.Next(&token)) ++tokens;
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}

void BM_Tokenize(benchmark::State& state) {
  TokenizeAll(state, DealerPageHtml());
}
BENCHMARK(BM_Tokenize);

void BM_Tokenize_scalar(benchmark::State& state) {
  ScopedScalar scalar;
  TokenizeAll(state, DealerPageHtml());
}
BENCHMARK(BM_Tokenize_scalar);

void StreamBuild(benchmark::State& state, const std::string& input) {
  html::StreamPage page;
  for (auto _ : state) {
    page.Build(input);
    benchmark::DoNotOptimize(page.stream().size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}

// Dealer pages carry &amp;-references, so this is the patched
// (copy-on-write) tier — the one the serving streaming path hits.
void BM_StreamPageBuild(benchmark::State& state) {
  StreamBuild(state, DealerPageHtml());
}
BENCHMARK(BM_StreamPageBuild);

void BM_StreamPageBuild_scalar(benchmark::State& state) {
  ScopedScalar scalar;
  StreamBuild(state, DealerPageHtml());
}
BENCHMARK(BM_StreamPageBuild_scalar);

// --- JSON artifact ---------------------------------------------------------

struct CapturedRun {
  std::string name;
  int64_t iterations = 0;
  double real_time_ns = 0;      // adjusted real time per iteration
  double bytes_per_second = 0;  // from SetBytesProcessed
};

/// Console output stays the primary human surface; this reporter also
/// captures each per-iteration run so main() can serialize the artifact.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(std::vector<CapturedRun>* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      CapturedRun captured;
      captured.name = run.benchmark_name();
      captured.iterations = run.iterations;
      captured.real_time_ns = run.GetAdjustedRealTime();
      auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        captured.bytes_per_second = static_cast<double>(bytes->second);
      }
      sink_->push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  std::vector<CapturedRun>* sink_;
};

double BytesPerSecond(const std::vector<CapturedRun>& runs,
                      std::string_view name) {
  for (const CapturedRun& run : runs) {
    if (run.name == name) return run.bytes_per_second;
  }
  return 0;
}

std::string RunsToJson(const std::vector<CapturedRun>& runs, bool smoke) {
  obs::JsonWriter json;
  BeginSchemaDocument(json, "ntw-scan-bench", 1);
  json.Key("config");
  json.BeginObject();
  json.KV("smoke", smoke);
  json.EndObject();
  WriteMachineInfo(json);
  json.Key("benchmarks");
  json.BeginArray();
  for (const CapturedRun& run : runs) {
    json.BeginObject();
    json.KV("name", run.name);
    json.KV("iterations", run.iterations);
    json.KV("real_time_ns", run.real_time_ns);
    json.KV("bytes_per_second", run.bytes_per_second);
    json.EndObject();
  }
  json.EndArray();
  // Dispatched-vs-scalar ratio for every benchmark with a _scalar twin:
  // the artifact's headline numbers, >1 means the SIMD path wins.
  json.Key("speedups");
  json.BeginObject();
  for (const CapturedRun& run : runs) {
    std::string twin = run.name + "_scalar";
    double scalar = BytesPerSecond(runs, twin);
    if (scalar > 0 && run.bytes_per_second > 0) {
      json.KV(run.name + "_vs_scalar", run.bytes_per_second / scalar);
    }
  }
  json.EndObject();
  json.EndObject();
  return json.Take() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // Smoke mode keeps the artifact schema identical and just shrinks the
  // measurement window to a CI-friendly sanity check.
  static char kMinTime[] = "--benchmark_min_time=0.01";
  if (smoke) passthrough.push_back(kMinTime);
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }

  std::vector<CapturedRun> runs;
  CapturingReporter reporter(&runs);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!out_path.empty()) {
    ntw::Status status = ntw::WriteFile(out_path, RunsToJson(runs, smoke));
    if (!status.ok()) {
      std::fprintf(stderr, "bench_tokenizer_scan: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu benchmarks)\n", out_path.c_str(),
                 runs.size());
  }
  return 0;
}
