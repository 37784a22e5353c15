// crawl: depth-1 CrawlPipeline passes over a generated file:// origin.
//
// The origin is 1000 MakeOriginCorpus sites with four pages each, listed by
// ten section index pages of 100 sites; a pass crawls one section (so a run
// holds enough passes for stable pass-time percentiles). The sites' learned
// wrappers (XPath `name`, LR `name_lr`) and tens of thousands of synthetic
// padding sites (three attributes each) go into one mmap wrapper pack.
// Every pass opens the pack fresh, so each site's first lookup is a cold,
// materializing read — the opposite of serve's small, hot repository. Two
// workers, no politeness delay, NDJSON into memory. The pack is built (and
// its set-up timed) in separate `perfbench setup` processes, so the
// measuring process only opens the pack and crawls, and its peak RSS is
// the crawl's.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/lr_inductor.h"
#include "core/wrapper_pack.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "crawl/fetcher.h"
#include "crawl/frontier.h"
#include "crawl/pipeline.h"
#include "crawl/rate_limiter.h"
#include "crawl/record.h"
#include "crawl/url.h"
#include "obs/metrics.h"
#include "serve/wrapper_repository.h"
#include "sitegen/origin.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ntw::StrFormat;

constexpr size_t kOriginSites = 1000;
constexpr size_t kSitesPerSection = 100;
constexpr size_t kSections = kOriginSites / kSitesPerSection;
constexpr size_t kPagesPerSite = 4;
constexpr size_t kPaddingSites = 30000;
constexpr size_t kPaddingAttributes = 3;
constexpr int kWorkers = 2;
// Set-ups, each in a fresh process: kSetupRepeats before the gate and one
// more after every kSetupEverySeconds of passes, so the set-up samples span
// the same stretch of time as the passes and both see the machine in the
// same state.
constexpr int kSetupRepeats = 2;
constexpr double kSetupEverySeconds = 5.0;
// The origin's attributes, ascending (the order the pipeline emits).
constexpr const char* kAttributes[] = {"name", "name_lr"};
constexpr char kValueSeparator = '\x1f';

std::string OriginRoot(const Args& args) { return args.dir + "/origin"; }
std::string PackPath(const Args& args) { return args.dir + "/wrappers.pack"; }
std::string SectionIndex(size_t section) {
  return StrFormat("index_%02zu.html", section);
}
std::string ExpectedPath(const Args& args, size_t section) {
  return args.dir + StrFormat("/expected_%02zu.ndjson", section);
}

}  // namespace

int PrepareCrawl(const Args& args) {
  ntw::sitegen::OriginOptions options;
  options.sites = kOriginSites;
  options.pages_per_site = kPagesPerSite;
  options.seed = args.seed;
  options.write_root_index = false;
  ntw::sitegen::OriginCorpus corpus = ntw::sitegen::MakeOriginCorpus(options);
  ntw::Status wrote = ntw::sitegen::WriteOriginTree(corpus, OriginRoot(args));
  if (wrote.ok()) {
    wrote = ntw::sitegen::WriteOriginWrapperRepository(corpus,
                                                       args.dir + "/records");
  }
  if (!wrote.ok()) Fail(wrote.ToString());

  // Reference: the heap-DOM interpreter over every page, in the order a
  // depth-1 crawl of a section index emits them, formatted by the
  // pipeline's own record writer.
  std::string expected;
  std::string index;
  std::string pages;
  for (size_t s = 0; s < corpus.sites.size(); ++s) {
    const ntw::sitegen::OriginSite& site = corpus.sites[s];
    std::vector<ntw::core::WrapperPtr> wrappers;
    for (const char* attribute : kAttributes) {
      ntw::Result<ntw::core::WrapperPtr> wrapper = ntw::core::LoadWrapper(
          args.dir + "/records/" + site.key + "/" + attribute + ".wrapper");
      if (!wrapper.ok()) Fail(wrapper.status().ToString());
      wrappers.push_back(*wrapper);
    }
    for (size_t p = 0; p < site.page_html.size(); ++p) {
      ntw::Result<ntw::crawl::Url> url = ntw::crawl::ParseUrl(
          "file://" + OriginRoot(args) + "/" + site.key + "/" +
          ntw::sitegen::OriginCorpus::PageFileName(p));
      if (!url.ok()) Fail(url.status().ToString());
      std::string serialized = url->Serialize();
      index += "<li><a href=\"" + site.key + "/" +
               ntw::sitegen::OriginCorpus::PageFileName(p) + "\">" +
               site.key + "</a></li>\n";
      pages += serialized + "\t" + site.key;
      for (size_t a = 0; a < wrappers.size(); ++a) {
        std::vector<std::string> values =
            InterpretValues(*wrappers[a], site.page_html[p]);
        std::vector<std::string_view> views(values.begin(), values.end());
        ntw::crawl::AppendRecordLine(site.key, serialized, kAttributes[a],
                                     views, ntw::crawl::RecordTiming{},
                                     &expected);
        pages += "\t" + ntw::Join(values, std::string(1, kValueSeparator));
      }
      pages += "\n";
    }
    if ((s + 1) % kSitesPerSection == 0) {
      const size_t section = s / kSitesPerSection;
      WriteOrFail(OriginRoot(args) + "/" + SectionIndex(section),
                  "<html><head><title>origin section</title></head><body>"
                  "<ul>\n" + index + "</ul></body></html>\n");
      WriteOrFail(ExpectedPath(args, section), expected);
      index.clear();
      expected.clear();
    }
  }
  WriteOrFail(args.dir + "/pages.tsv", pages);
  return 0;
}

namespace {

struct CrawlPage {
  std::string url;
  std::string site;
  std::vector<std::vector<std::string>> values;  // Per kAttributes entry.
};

std::vector<CrawlPage> LoadPages(const Args& args) {
  std::vector<CrawlPage> pages;
  for (const std::string& line :
       ntw::Split(ReadOrFail(args.dir + "/pages.tsv"), '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> f = ntw::Split(line, '\t');
    if (f.size() != 2 + std::size(kAttributes)) Fail("bad pages line");
    CrawlPage page{f[0], f[1], {}};
    for (size_t a = 0; a < std::size(kAttributes); ++a) {
      page.values.push_back(f[2 + a].empty()
                                ? std::vector<std::string>()
                                : ntw::Split(f[2 + a], kValueSeparator));
    }
    pages.push_back(std::move(page));
  }
  if (pages.empty()) Fail("empty crawl corpus");
  return pages;
}

struct PackRecord {
  std::string site;
  std::string attribute;
  std::string record;
};

/// Origin records (read back as WriteOriginWrapperRepository wrote them)
/// plus the synthetic padding sites, all in memory before set-up starts.
std::vector<PackRecord> LoadRecords(const Args& args,
                                    const std::vector<CrawlPage>& pages) {
  std::vector<PackRecord> records;
  std::string last;
  for (const CrawlPage& page : pages) {
    if (page.site == last) continue;
    last = page.site;
    for (const char* attribute : kAttributes) {
      records.push_back(PackRecord{
          page.site, attribute,
          ReadOrFail(args.dir + "/records/" + page.site + "/" + attribute +
                     ".wrapper")});
    }
  }
  ntw::sitegen::SyntheticRepositoryOptions padding;
  padding.sites = kPaddingSites;
  padding.attrs = kPaddingAttributes;
  padding.seed = args.seed;
  ntw::Status made = ntw::sitegen::ForEachSyntheticWrapperRecord(
      padding, [&](const std::string& site, const std::string& attribute,
                   const std::string& record) {
        records.push_back(PackRecord{site, attribute, record});
        return ntw::Status::OK();
      });
  if (!made.ok()) Fail(made.ToString());
  return records;
}

std::unique_ptr<ntw::serve::WrapperRepository> OpenPack(
    const std::string& path) {
  auto repository = std::make_unique<ntw::serve::WrapperRepository>(
      ntw::serve::WrapperRepository::Options{std::string(), path});
  ntw::Status loaded = repository->Load();
  if (!loaded.ok()) Fail(loaded.ToString());
  if (repository->snapshot()->pack == nullptr) Fail("pack did not open");
  return repository;
}

ntw::crawl::CrawlOptions PassOptions() {
  ntw::crawl::CrawlOptions options;
  options.workers = kWorkers;
  options.max_depth = 1;
  // file:// bypasses the limiter; keep politeness out explicitly anyway.
  options.rate.requests_per_second = 1e9;
  options.rate.burst = 1e9;
  return options;
}

struct Pass {
  ntw::crawl::CrawlStats stats;
  std::string ndjson;
  double open_us = 0.0;
  double wall_s = 0.0;  // Open + crawl.
};

/// One pass: a fresh pack open (every site starts cold), then a depth-1
/// crawl of one section index.
Pass RunPass(const Args& args, ntw::ThreadPool* pool, size_t section,
             Tracer::Buffer* trace) {
  Pass pass;
  pass.ndjson.reserve(1 << 21);
  const int64_t t0 = NowNs();
  const uint64_t rid =
      trace == nullptr ? 0 : trace->Open("crawl.pass", 0, 0, t0);
  std::unique_ptr<ntw::serve::WrapperRepository> repository =
      OpenPack(PackPath(args));
  const int64_t t1 = NowNs();
  ntw::crawl::CrawlPipeline pipeline(repository.get(), pool, PassOptions());
  pass.stats = pipeline.Run(
      {"file://" + OriginRoot(args) + "/" + SectionIndex(section)},
      [&pass](std::string_view chunk) { pass.ndjson.append(chunk); });
  const int64_t t2 = NowNs();
  if (trace != nullptr) {
    trace->Record("serve.repository.open", rid, rid, t0, t1);
    trace->Record("crawl.pipeline.run", rid, rid, t1, t2);
    trace->Close(rid, t2);
  }
  pass.open_us = static_cast<double>(t1 - t0) / 1e3;
  pass.wall_s = static_cast<double>(t2 - t0) / 1e9;
  return pass;
}

/// Reads one counter from the obs registry dump without creating it;
/// -1 when the program does not export it.
double OptionalCounter(const std::string& name) {
  std::string dump = ntw::obs::Registry::Global().ToJson();
  size_t at = dump.find("\"" + name + "\":");
  if (at == std::string::npos) return -1.0;
  return std::strtod(dump.c_str() + at + name.size() + 3, nullptr);
}

}  // namespace

/// One set-up in a process that has done nothing else yet: pack build +
/// first open, after the records are read and generated (untimed). Prints
/// "build_s<TAB>setup_s".
int SetupCrawl(const Args& args) {
  const std::vector<PackRecord> records = LoadRecords(args, LoadPages(args));
  const int64_t t0 = NowNs();
  {
    ntw::core::WrapperPackBuilder builder;
    for (const PackRecord& r : records) {
      ntw::Status added = builder.Add(r.site, r.attribute, r.record);
      if (!added.ok()) Fail(added.ToString());
    }
    ntw::Status written = builder.WriteFile(PackPath(args));
    if (!written.ok()) Fail(written.ToString());
  }
  const int64_t t1 = NowNs();
  OpenPack(PackPath(args));
  const int64_t t2 = NowNs();
  std::printf("%.9f\t%.9f\n", static_cast<double>(t1 - t0) / 1e9,
              static_cast<double>(t2 - t0) / 1e9);
  return 0;
}

int RunCrawl(const Args& args) {
  Report report("crawl");
  std::vector<CrawlPage> pages = LoadPages(args);
  std::vector<std::string> expected;
  for (size_t k = 0; k < kSections; ++k) {
    expected.push_back(ReadOrFail(ExpectedPath(args, k)));
  }
  const int64_t pages_per_pass =
      static_cast<int64_t>(kSitesPerSection * kPagesPerSite) + 1;

  // ----- set-up: each rebuilds the pack the passes open (the builder
  // writes a temporary file and renames it, so no open mapping changes).
  std::vector<double> setup_s;
  std::vector<double> build_s;
  auto set_up = [&] {
    std::vector<std::string> f = ntw::Split(
        RunSelf({"setup", "--workload", "crawl", "--seed",
                 std::to_string(args.seed), "--seconds", "1", "--trace", "0",
                 "--dir", args.dir}),
        '\t');
    if (f.size() != 2) Fail("bad set-up output");
    build_s.push_back(std::stod(f[0]));
    setup_s.push_back(std::stod(f[1]));
  };
  for (int i = 0; i < kSetupRepeats; ++i) set_up();
  std::error_code size_error;
  const uintmax_t pack_bytes =
      std::filesystem::file_size(PackPath(args), size_error);
  if (size_error) Fail("cannot stat the pack: " + size_error.message());

  ntw::ThreadPool pool(kWorkers);
  // ----- gate: every section once; its NDJSON must equal the
  // interpreter's. -----------------------------------------------------------
  for (size_t k = 0; k < kSections; ++k) {
    Pass pass = RunPass(args, &pool, k, nullptr);
    if (pass.stats.pages_failed != 0 ||
        pass.stats.pages_fetched != pages_per_pass) {
      Fail(StrFormat("gate pass fetched %lld pages, %lld failed",
                     static_cast<long long>(pass.stats.pages_fetched),
                     static_cast<long long>(pass.stats.pages_failed)));
    }
    if (pass.ndjson != expected[k]) {
      size_t at = 0;
      while (at < pass.ndjson.size() && at < expected[k].size() &&
             pass.ndjson[at] == expected[k][at]) {
        ++at;
      }
      Fail(StrFormat("section %zu NDJSON differs from the interpreter at "
                     "byte %zu",
                     k, at));
    }
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  struct Passes {
    std::vector<double> pass_us;
    std::vector<double> open_us;
    std::vector<double> page_us;  // Wall × workers ÷ pages fetched.
  };
  auto passes_for = [&](double seconds, Tracer::Buffer* trace) {
    Passes out;
    const int64_t every = static_cast<int64_t>(kSetupEverySeconds * 1e9);
    int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    int64_t next_setup = NowNs() + every;
    for (size_t i = 0; NowNs() < end; ++i) {
      if (NowNs() >= next_setup) {
        // Set-up time does not count against the measured seconds.
        const int64_t t0 = NowNs();
        set_up();
        const int64_t spent = NowNs() - t0;
        end += spent;
        next_setup += every + spent;
      }
      const size_t section = i % kSections;
      Pass pass = RunPass(args, &pool, section, trace);
      attempted += pages_per_pass;
      if (pass.ndjson != expected[section]) {
        failed += pages_per_pass;
      } else {
        failed += pass.stats.pages_failed;
      }
      out.pass_us.push_back(pass.wall_s * 1e6);
      out.open_us.push_back(pass.open_us);
      out.page_us.push_back(pass.wall_s * 1e6 * kWorkers /
                            static_cast<double>(pass.stats.pages_fetched));
    }
    return out;
  };
  // Pages per second at the median pass time: passes run back to back,
  // so this is the crawl rate with the slowest passes (a burst of
  // interference from another tenant of the machine) left out.
  auto pages_per_s = [&](const Passes& p) {
    return static_cast<double>(pages_per_pass) * 1e6 / Median(p.pass_us);
  };

  const double untraced_seconds =
      args.trace ? args.seconds * 0.4 : args.seconds;
  Passes untraced = passes_for(untraced_seconds, nullptr);
  const double throughput = pages_per_s(untraced);
  std::vector<double> pass_us = untraced.pass_us;
  const double p50 = Quantile(pass_us, 0.50);
  const double p99 = Quantile(pass_us, 0.99);
  const double pack_mb = static_cast<double>(pack_bytes) / (1 << 20);

  report.Text(MachineLine(
      args, StrFormat("workers=%d origin_sites=%zu sections=%zu "
                      "pages_per_pass=%lld padding_sites=%zu pack_entries=%zu "
                      "setup_samples=%zu",
                      kWorkers, kOriginSites, kSections,
                      static_cast<long long>(pages_per_pass), kPaddingSites,
                      kOriginSites * std::size(kAttributes) +
                          kPaddingSites * kPaddingAttributes,
                      setup_s.size())));
  report.Line("crawl_pages_per_s", throughput, "pages/s",
              "pages per pass / median pass time");
  report.Line("crawl_pass_p50_us", p50, "us", "latency_p50_us");
  report.Line("crawl_pass_p99_us", p99, "us",
              StrFormat("%zu passes", pass_us.size()));
  report.Line("pack_mb", pack_mb, "MiB", "file size of the crawl pack");

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    report.Metric("latency_p50_us", p50, "us");
    report.Print(attempted, failed);
    return 0;
  }

  // ----- traced: passes with spans, then per-stage probes. ---------------
  Tracer tracer(1 << 18);
  Passes traced = passes_for(args.seconds * 0.4, tracer.NewBuffer());
  const double traced_throughput = pages_per_s(traced);
  const double materializations =
      OptionalCounter("ntw.repo.pack_materializations");

  Tracer::Buffer* probe = tracer.NewBuffer();
  const int64_t probe_end =
      NowNs() + static_cast<int64_t>(args.seconds * 0.2 * 1e9);
  std::vector<double> fetch_us, frontier_us, emit_us, cold_us, hot_us;
  std::vector<ntw::crawl::Url> urls;
  for (const CrawlPage& page : pages) {
    ntw::Result<ntw::crawl::Url> url = ntw::crawl::ParseUrl(page.url);
    if (!url.ok()) Fail(url.status().ToString());
    urls.push_back(*url);
  }
  std::string sink;
  for (int round = 0; NowNs() < probe_end || round == 0; ++round) {
    // Repository: a fresh open, then one cold and one hot Find per site.
    {
      std::unique_ptr<ntw::serve::WrapperRepository> repository =
          OpenPack(PackPath(args));
      std::string last;
      for (const CrawlPage& page : pages) {
        if (page.site == last) continue;
        last = page.site;
        for (std::vector<double>* out : {&cold_us, &hot_us}) {
          const int64_t t0 = NowNs();
          const ntw::serve::WrapperRepository::Entry* entry;
          {
            ntw::serve::WrapperRepository::PinnedSnapshot pin =
                repository->Pin();
            entry = pin->Find(page.site, kAttributes[0]);
          }
          const int64_t t1 = NowNs();
          if (entry == nullptr) Fail("pack lookup missed " + page.site);
          probe->Record(out == &cold_us ? "serve.repository.find_cold"
                                        : "serve.repository.find_hot",
                        0, 0, t0, t1);
          out->push_back(static_cast<double>(t1 - t0) / 1e3);
        }
      }
    }
    // Fetch, frontier and emit, per page.
    ntw::crawl::DomainRateLimiter limiter(PassOptions().rate);
    ntw::crawl::Frontier frontier(ntw::crawl::FrontierOptions{{}, {}, 1, -1, 1},
                                  &limiter);
    ntw::crawl::EmitQueue emit(
        [&sink](std::string_view chunk) { sink.assign(chunk); }, 64);
    for (size_t i = 0; i < pages.size(); ++i) {
      const uint64_t rid = probe->Open("crawl.probe.page", 0, 0, NowNs());
      int64_t t0 = NowNs();
      ntw::crawl::FetchResult fetched =
          ntw::crawl::Fetch(urls[i], ntw::crawl::FetchOptions{});
      int64_t t1 = NowNs();
      if (!fetched.ok()) Fail("probe fetch failed: " + pages[i].url);
      probe->Record("crawl.fetcher.fetch", rid, rid, t0, t1);
      fetch_us.push_back(static_cast<double>(t1 - t0) / 1e3);

      t0 = NowNs();
      frontier.Add(urls[i], 1);
      ntw::crawl::FrontierItem item;
      if (!frontier.Next(&item)) Fail("frontier lost a URL");
      frontier.Complete(item);
      t1 = NowNs();
      probe->Record("crawl.frontier", rid, rid, t0, t1);
      frontier_us.push_back(static_cast<double>(t1 - t0) / 1e3);

      t0 = NowNs();
      std::string chunk;
      for (size_t a = 0; a < std::size(kAttributes); ++a) {
        std::vector<std::string_view> views(pages[i].values[a].begin(),
                                            pages[i].values[a].end());
        ntw::crawl::AppendRecordLine(pages[i].site, pages[i].url,
                                     kAttributes[a], views,
                                     ntw::crawl::RecordTiming{}, &chunk);
      }
      emit.Push(i, std::move(chunk));
      t1 = NowNs();
      probe->Record("crawl.emit", rid, rid, t0, t1);
      emit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      probe->Close(rid, NowNs());
    }
    frontier.Shutdown();
  }

  const double fetch = Median(fetch_us);
  const double frontier = Median(frontier_us);
  const double emit = Median(emit_us);
  const char* rate = "latency_p50_us (pass time), crawl_pages_per_s";
  report.Metric("core.wrapper_pack.build_s", Median(build_s), "s", "setup_s");
  report.Metric("serve.repository.open_us", Median(untraced.open_us), "us",
                "setup_s, latency_p50_us (pass time)");
  report.Metric("serve.repository.find_cold_us", Median(cold_us), "us", rate);
  report.Metric("serve.repository.find_hot_us", Median(hot_us), "us", rate);
  report.Metric("crawl.fetcher.fetch_us", fetch, "us", rate);
  report.Metric("crawl.frontier.us", frontier, "us", rate);
  report.Metric("crawl.emit.us", emit, "us", rate);
  report.Metric("crawl.pipeline.overhead_us",
                Median(untraced.page_us) - fetch - frontier - emit, "us", rate);
  report.Metric("crawl.pack_mb", pack_mb, "MiB", "setup_s");
  report.Metric("trace.overhead_pct",
                (throughput - traced_throughput) / throughput * 100.0, "%",
                "crawl_pages_per_s");
  if (materializations >= 0.0) {
    report.Line("serve.repository.materializations (obs counter)",
                materializations, "count",
                StrFormat("over %zu passes",
                          untraced.pass_us.size() + traced.pass_us.size()));
  } else {
    report.Text("serve.repository.materializations: absent (the program "
                "exports no ntw.repo.pack_materializations counter)");
  }
  report.Line("crawl_pages_per_s (traced)", traced_throughput, "pages/s");
  report.Line("serve.repository.open_us (traced passes)",
              Median(traced.open_us), "us");
  ReportSpans(tracer, args.trace_out, &report);
  report.Print(attempted, failed);
  return 0;
}

}  // namespace perfbench
