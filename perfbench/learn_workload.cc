// learn: the paper's own path — unsupervised wrapper learning per site.
//
// DEALERS sites made from the seed, a global pool of two threads. Set-up
// learns the annotation and publication models on the train half
// (datasets::LearnModels). Timed, per test-half site: the dictionary and
// regex annotators, then LearnNoiseTolerant with XPath/TopDown and with
// LR/BottomUp. All the work is in annotation, enumeration (with its
// induction cache), the inductors and the ranker; none is in HTML serving.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "annotate/dictionary_annotator.h"
#include "annotate/regex_annotator.h"
#include "common.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/enumerate.h"
#include "core/lr_inductor.h"
#include "core/metrics.h"
#include "core/ntw.h"
#include "core/ranker.h"
#include "core/xpath_inductor.h"
#include "datasets/dataset.h"
#include "datasets/dealers.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ntw::StrFormat;

constexpr size_t kSites = 320;
constexpr int kThreads = 2;
// Set-up repetitions before the gate, and one more after every
// kSitesPerSetup timed sites: the set-up samples span the same stretch of
// time as the site timings, so both see the machine in the same state.
constexpr int kSetupRepeats = 3;
constexpr size_t kSitesPerSetup = 48;

/// What one site's learning produced; compared across runs.
struct SiteOutcome {
  std::string xpath_winner;
  std::string lr_winner;
  ntw::core::Prf xpath_prf;
  ntw::core::Prf lr_prf;
  bool operator==(const SiteOutcome& o) const {
    return xpath_winner == o.xpath_winner && lr_winner == o.lr_winner &&
           xpath_prf.f1 == o.xpath_prf.f1 && lr_prf.f1 == o.lr_prf.f1;
  }
};

/// Enumeration counts of one learner over one pass of the test sites.
struct Counts {
  int64_t calls = 0;       // Logical inductor calls.
  int64_t real_calls = 0;  // Calls that reached the inductor.
  int64_t cache_hits = 0;
  int64_t space = 0;
};

class Learner {
 public:
  Learner(const ntw::datasets::Dataset& dealers,
          std::vector<std::string> dictionary, ntw::core::Ranker ranker)
      : dealers_(dealers),
        name_annotator_(std::move(dictionary)),
        zip_annotator_(ntw::annotate::RegexAnnotator::Zipcode()),
        phone_annotator_(MakePhoneAnnotator()),
        ranker_(std::move(ranker)) {}

  /// Annotate + learn with both inductors, untraced: LearnNoiseTolerant.
  SiteOutcome Learn(size_t site) const {
    const ntw::datasets::SiteData& data = dealers_.sites[site];
    ntw::core::NodeSet labels = Annotate(data, nullptr, 0);
    return Outcome(
        data,
        Winner(ntw::core::LearnNoiseTolerant(xpath_, data.site.pages, labels,
                                             ranker_, {kXPathAlgorithm})),
        Winner(ntw::core::LearnNoiseTolerant(lr_, data.site.pages, labels,
                                             ranker_, {kLrAlgorithm})));
  }

  /// The same work with spans: annotators, then Enumerate and Rank called
  /// separately (LearnNoiseTolerant is exactly these two), through
  /// counting inductors so real inductor calls are visible.
  SiteOutcome LearnTraced(
      size_t site, Tracer::Buffer* trace, Counts* xpath_counts,
      Counts* lr_counts,
      std::map<std::string, std::vector<double>>* us) const {
    const ntw::datasets::SiteData& data = dealers_.sites[site];
    const uint64_t rid = trace->Open("learn.site", 0, 0, NowNs());
    const int64_t a0 = NowNs();
    ntw::core::NodeSet labels = Annotate(data, trace, rid);
    (*us)["annotate"].push_back(static_cast<double>(NowNs() - a0) / 1e3);
    ntw::core::Candidate winners[2];
    double rank_us = 0.0;
    int which = 0;
    for (const auto* base :
         {static_cast<const ntw::core::WrapperInductor*>(&xpath_),
          static_cast<const ntw::core::WrapperInductor*>(&lr_)}) {
      const bool is_xpath = which == 0;
      ntw::core::CountingInductor counting(base);
      int64_t t0 = NowNs();
      ntw::Result<ntw::core::WrapperSpace> space = ntw::core::Enumerate(
          is_xpath ? kXPathAlgorithm : kLrAlgorithm, counting,
          data.site.pages, labels);
      int64_t t1 = NowNs();
      trace->Record(is_xpath ? "core.enumerate.xpath" : "core.enumerate.lr",
                    rid, rid, t0, t1);
      (*us)[is_xpath ? "enumerate.xpath" : "enumerate.lr"].push_back(
          static_cast<double>(t1 - t0) / 1e3);
      if (!space.ok() || space->candidates.empty()) Fail("empty wrapper space");
      t0 = NowNs();
      std::vector<ntw::core::ScoredCandidate> ranking =
          ranker_.Rank(*space, data.site.pages, labels);
      t1 = NowNs();
      trace->Record(is_xpath ? "core.ranker.rank.xpath" : "core.ranker.rank.lr",
                    rid, rid, t0, t1);
      rank_us += static_cast<double>(t1 - t0) / 1e3;
      winners[which] = space->candidates[ranking.front().candidate_index];
      Counts* counts = is_xpath ? xpath_counts : lr_counts;
      counts->calls += space->inductor_calls;
      counts->real_calls += counting.calls();
      counts->cache_hits += space->cache_hits;
      counts->space += static_cast<int64_t>(space->size());
      ++which;
    }
    (*us)["rank"].push_back(rank_us);
    trace->Close(rid, NowNs());
    return Outcome(data, winners[0], winners[1]);
  }

  /// Test-half sites the annotator labels (the others have nothing to
  /// learn from).
  std::vector<size_t> LearnableSites(const std::vector<size_t>& test) const {
    std::vector<size_t> out;
    for (size_t s : test) {
      const ntw::datasets::SiteData& data = dealers_.sites[s];
      if (data.site.truth.count("name") == 0) continue;
      if (name_annotator_.Annotate(data.site.pages).empty()) continue;
      out.push_back(s);
    }
    return out;
  }

 private:
  static constexpr ntw::core::EnumAlgorithm kXPathAlgorithm =
      ntw::core::EnumAlgorithm::kTopDown;
  static constexpr ntw::core::EnumAlgorithm kLrAlgorithm =
      ntw::core::EnumAlgorithm::kBottomUp;

  static ntw::annotate::RegexAnnotator MakePhoneAnnotator() {
    ntw::Result<ntw::annotate::RegexAnnotator> phone =
        ntw::annotate::RegexAnnotator::Create("phone",
                                              R"(\b\d{3}-\d{3}-\d{4}\b)");
    if (!phone.ok()) Fail(phone.status().ToString());
    return std::move(*phone);
  }

  /// The three annotators; the name labels drive learning.
  ntw::core::NodeSet Annotate(const ntw::datasets::SiteData& data,
                              Tracer::Buffer* trace, uint64_t rid) const {
    const ntw::core::PageSet& pages = data.site.pages;
    int64_t t0 = NowNs();
    ntw::core::NodeSet labels = name_annotator_.Annotate(pages);
    int64_t t1 = NowNs();
    ntw::core::NodeSet zips = zip_annotator_.Annotate(pages);
    ntw::core::NodeSet phones = phone_annotator_.Annotate(pages);
    int64_t t2 = NowNs();
    if (trace != nullptr) {
      trace->Record("annotate.dictionary", rid, rid, t0, t1);
      trace->Record("annotate.regex", rid, rid, t1, t2);
    }
    return labels;
  }

  static ntw::core::Candidate Winner(
      const ntw::Result<ntw::core::NtwOutcome>& outcome) {
    if (!outcome.ok()) Fail(outcome.status().ToString());
    return outcome->best;
  }

  SiteOutcome Outcome(const ntw::datasets::SiteData& data,
                      const ntw::core::Candidate& xpath,
                      const ntw::core::Candidate& lr) const {
    const ntw::core::NodeSet& truth = data.site.truth.at("name");
    return SiteOutcome{xpath.wrapper->ToString(), lr.wrapper->ToString(),
                       ntw::core::Evaluate(xpath.extraction, truth),
                       ntw::core::Evaluate(lr.extraction, truth)};
  }

  const ntw::datasets::Dataset& dealers_;
  ntw::annotate::DictionaryAnnotator name_annotator_;
  ntw::annotate::RegexAnnotator zip_annotator_;
  ntw::annotate::RegexAnnotator phone_annotator_;
  ntw::core::Ranker ranker_;
  ntw::core::XPathInductor xpath_;
  ntw::core::LrInductor lr_;
};

/// The dictionary annotator's entries: every distinct text the dataset's
/// own name dictionary labelled. (The generator keeps its dictionary
/// private; these are its entries that occur in the corpus.)
std::vector<std::string> RecoverDictionary(
    const ntw::datasets::Dataset& dealers) {
  std::set<std::string> entries;
  for (const ntw::datasets::SiteData& data : dealers.sites) {
    auto labels = data.annotations.find("name");
    if (labels == data.annotations.end()) continue;
    for (const ntw::core::NodeRef& ref : labels->second) {
      const ntw::html::Node* node = data.site.pages.Resolve(ref);
      if (node != nullptr) entries.insert(node->text());
    }
  }
  return std::vector<std::string>(entries.begin(), entries.end());
}

}  // namespace

int RunLearn(const Args& args) {
  Report report("learn");
  ntw::ThreadPool::SetGlobalThreads(kThreads);
  ntw::datasets::DealersConfig config;
  config.num_sites = kSites;
  config.seed = args.seed;
  const ntw::datasets::Dataset dealers = ntw::datasets::MakeDealers(config);
  const ntw::datasets::Split split = ntw::datasets::MakeSplit(dealers);

  // ----- set-up: the annotation and publication models. ------------------
  std::vector<double> setup_s;
  auto set_up = [&] {
    const int64_t t0 = NowNs();
    ntw::Result<ntw::datasets::TrainedModels> models =
        ntw::datasets::LearnModels(dealers, "name", split.train);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!models.ok()) Fail(models.status().ToString());
    return std::move(*models);
  };
  for (int i = 1; i < kSetupRepeats; ++i) set_up();
  const ntw::datasets::TrainedModels models = set_up();
  const Learner learner(dealers, RecoverDictionary(dealers),
                        ntw::core::Ranker(models.annotation,
                                          models.publication));
  const std::vector<size_t> sites = learner.LearnableSites(split.test);
  if (sites.empty()) Fail("no learnable test sites");

  // ----- gate: the 2-thread winners and F1 equal a 1-thread run's. -------
  std::vector<SiteOutcome> reference;
  ntw::ThreadPool::SetGlobalThreads(1);
  for (size_t s : sites) reference.push_back(learner.Learn(s));
  ntw::ThreadPool::SetGlobalThreads(kThreads);
  std::vector<ntw::core::Prf> xpath_prf, lr_prf;
  for (size_t i = 0; i < sites.size(); ++i) {
    if (!(learner.Learn(sites[i]) == reference[i])) {
      Fail("2-thread learning differs from 1-thread on " +
           dealers.sites[sites[i]].site.name);
    }
    xpath_prf.push_back(reference[i].xpath_prf);
    lr_prf.push_back(reference[i].lr_prf);
  }
  const double f1_xpath = ntw::core::MacroAverage(xpath_prf).f1;
  const double f1_lr = ntw::core::MacroAverage(lr_prf).f1;
  const double f1 = (f1_xpath + f1_lr) / 2.0;

  // ----- timed: test sites round-robin until the window closes; every
  // outcome is checked against the gate's. ----------------------------------
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Window {
    std::vector<double> site_us;
    std::vector<std::vector<double>> by_site;  // Per index into `sites`.
    /// Sites per second at each site's median learning time, so a burst
    /// of interference moves a few samples, not the result.
    double Rate() const {
      double total_us = 0.0;
      for (const std::vector<double>& t : by_site) total_us += Median(t);
      return static_cast<double>(by_site.size()) * 1e6 / total_us;
    }
  };
  auto run_window = [&](double seconds, auto&& learn_one) {
    Window w;
    w.by_site.resize(sites.size());
    int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    // Whole passes over the sites, so every site weighs the same.
    for (size_t i = 0; NowNs() < end || i % sites.size() != 0; ++i) {
      if (i > 0 && i % kSitesPerSetup == 0) {
        // Set-up time does not count against the measured seconds.
        const int64_t t0 = NowNs();
        set_up();
        end += NowNs() - t0;
      }
      const size_t k = i % sites.size();
      const int64_t t0 = NowNs();
      SiteOutcome outcome = learn_one(sites[k]);
      w.site_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      w.by_site[k].push_back(w.site_us.back());
      ++attempted;
      if (!(outcome == reference[k])) ++failed;
    }
    return w;
  };
  Window untraced =
      run_window(args.trace ? args.seconds * 0.5 : args.seconds,
                 [&](size_t s) { return learner.Learn(s); });
  const double sites_per_s = untraced.Rate();
  std::vector<double> site_us = untraced.site_us;
  const double p50 = Quantile(site_us, 0.50);
  const double p99 = Quantile(site_us, 0.99);

  report.Text(MachineLine(
      args, StrFormat("threads=%d dealers_sites=%zu learnable_test_sites=%zu "
                      "setup_samples=%zu",
                      kThreads, kSites, sites.size(), setup_s.size())));
  report.Line("learn_sites_per_s", sites_per_s, "sites/s",
              "sites / sum of per-site median times");
  report.Line("learn_site_p50_us", p50, "us", "latency_p50_us");
  report.Line("learn_site_p99_us", p99, "us",
              StrFormat("%zu sites timed", site_us.size()));
  report.Line("learn_f1", f1, "ratio",
              StrFormat("NTW macro-F1: XPath %.4f, LR %.4f", f1_xpath, f1_lr));

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    report.Metric("latency_p50_us", p50, "us");
    report.Print(attempted, failed);
    return 0;
  }

  // ----- traced: the same loop, split into spans. ------------------------
  Tracer tracer(1 << 18);
  Tracer::Buffer* trace = tracer.NewBuffer();
  Counts xpath_counts, lr_counts;
  std::map<std::string, std::vector<double>> us;
  size_t traced_sites = 0;
  Window traced = run_window(args.seconds * 0.5, [&](size_t s) {
    // Counts cover exactly one pass over the sites.
    const bool count = traced_sites++ < sites.size();
    Counts scratch_x, scratch_l;
    return learner.LearnTraced(s, trace, count ? &xpath_counts : &scratch_x,
                               count ? &lr_counts : &scratch_l, &us);
  });
  const double traced_sites_per_s = traced.Rate();
  auto hit_rate = [](const Counts& c) {
    return c.calls > 0 ? static_cast<double>(c.cache_hits) / c.calls : 0.0;
  };
  const char* rate = "latency_p50_us (site time), learn_sites_per_s";
  report.Metric("core.models_s", Median(setup_s), "s", "setup_s");
  report.Metric("annotate.us", Median(us["annotate"]), "us", rate);
  report.Metric("core.enumerate.xpath_us", Median(us["enumerate.xpath"]), "us",
                rate);
  report.Metric("core.enumerate.lr_us", Median(us["enumerate.lr"]), "us", rate);
  report.Metric("core.ranker.rank_us", Median(us["rank"]), "us", rate);
  report.Metric("core.enumerate.xpath.calls",
                static_cast<double>(xpath_counts.calls), "count", rate);
  report.Metric("core.enumerate.lr.calls", static_cast<double>(lr_counts.calls),
                "count", rate);
  report.Metric("core.enumerate.xpath.real_calls",
                static_cast<double>(xpath_counts.real_calls), "count", rate);
  report.Metric("core.enumerate.lr.real_calls",
                static_cast<double>(lr_counts.real_calls), "count", rate);
  report.Metric("core.induction_cache.xpath.hit_rate", hit_rate(xpath_counts),
                "ratio", rate);
  report.Metric("core.induction_cache.lr.hit_rate", hit_rate(lr_counts),
                "ratio", rate);
  report.Metric("core.enumerate.xpath.space_size",
                static_cast<double>(xpath_counts.space), "count", rate);
  report.Metric("core.enumerate.lr.space_size",
                static_cast<double>(lr_counts.space), "count", rate);
  report.Metric("learn.f1", f1, "ratio", "quality (deterministic per seed)");
  report.Metric("trace.overhead_pct",
                (sites_per_s - traced_sites_per_s) / sites_per_s * 100.0,
                "%", "learn_sites_per_s");
  report.Text(StrFormat(
      "induction cache bases: xpath %lld hits / %lld logical calls, "
      "lr %lld / %lld (one pass over %zu sites)",
      static_cast<long long>(xpath_counts.cache_hits),
      static_cast<long long>(xpath_counts.calls),
      static_cast<long long>(lr_counts.cache_hits),
      static_cast<long long>(lr_counts.calls), sites.size()));
  report.Line("learn_sites_per_s (traced)", traced_sites_per_s, "sites/s");
  ReportSpans(tracer, args.trace_out, &report);
  report.Print(attempted, failed);
  return 0;
}

}  // namespace perfbench
