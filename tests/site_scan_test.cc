// Multi-attribute extraction tests (DESIGN.md §12). `attribute=*` and the
// crawl extract every attribute of a site from one page through
// ExtractionRouter::SiteScan: the page's StreamPage is built once, for the
// first dom_free (LR/HLRT) plan, and every dom_free plan runs its own
// matcher over it; XPath plans, entries without a plan and the
// fast-path-off service route each attribute alone. The contract under
// test is byte-identity with the per-attribute route and with the
// heap-DOM interpreter — on both repository backends, with overlay
// publishes shadowing pack records — and exactly one StreamPage build per
// page whatever the attribute count.

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/extraction_router.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/wrapper_pack.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"
#include "sitegen/origin.h"
#include "xpath/parser.h"

namespace ntw {
namespace {

constexpr char kSuffix[] = ".wrapper";

using Values = std::vector<std::string>;

Values Copy(const std::vector<std::string_view>& views) {
  return Values(views.begin(), views.end());
}

core::WrapperPtr XPath(const char* text) {
  auto expr = xpath::ParseXPath(text);
  EXPECT_TRUE(expr.ok()) << text;
  return std::make_shared<core::XPathWrapper>(*expr);
}

// One attribute of a hand-built site: the wrapper and its plan (null for
// "no compiled form").
struct Attribute {
  std::string name;
  core::WrapperPtr wrapper;
  std::shared_ptr<const core::CompiledWrapper> plan;
};

Attribute Compiled(std::string name, core::WrapperPtr wrapper) {
  auto plan = core::CompiledWrapper::Compile(*wrapper);
  return {std::move(name), std::move(wrapper), std::move(plan)};
}

// Every route at once: delimiter plans covering the edge cases (LR with
// and without a left delimiter, HLRT with head+tail, HLRT whose tail never
// occurs), a streamable XPath plan, an unstreamable (0-step) XPath plan
// and a wrapper with no plan.
std::vector<Attribute> MixedSite() {
  std::vector<Attribute> site = {
      Compiled("bold", std::make_shared<core::LrWrapper>("<b>", "</b>")),
      Compiled("items", XPath("//li/text()")),
      Compiled("leftless", std::make_shared<core::LrWrapper>("", "</i>")),
      Compiled("list", std::make_shared<core::HlrtWrapper>("<ul>", "</ul>",
                                                           "<li>", "</li>")),
      Compiled("notail",
               std::make_shared<core::HlrtWrapper>("<ol>", "<!--never-->",
                                                   "<li>", "</li>")),
      Compiled("root", std::make_shared<core::XPathWrapper>(xpath::Expr{})),
  };
  site.push_back({"unplanned", std::make_shared<core::LrWrapper>("<u>", "</u>"),
                  nullptr});
  return site;
}

const char* const kMixedPages[] = {
    "<html><body><i>first</i><b>one</b> mid <b>two</b>"
    "<ul><li>a1</li><li>a2</li></ul>"
    "<ol><li>b1</li></ol><u>under</u>"
    "<b>three</b><i>last</i></body></html>",
    "",
    "no delimiters at all",
    "<b>unclosed",
    "<p><b>x &amp; y</b><li>tag <em>soup</em></p></b><i>z</i>",
};

TEST(SiteScanTest, MixedSiteMatchesPerAttributeAndInterpreter) {
  core::ExtractionRouter router;
  core::ExtractionRouter interpreter(
      core::ExtractionRouter::Options{.fast_path = false});
  for (const char* page : kMixedPages) {
    std::vector<Attribute> site = MixedSite();
    core::ExtractionRouter::SiteScan scan = router.ScanSite(page);
    // Hold every page at once: a later attribute must not disturb the
    // values an earlier one returned.
    std::vector<core::ExtractionRouter::Page> pages;
    for (const Attribute& a : site) {
      pages.push_back(scan.Extract(*a.wrapper, a.plan.get()));
    }
    ASSERT_TRUE(scan.built()) << page;
    int builds = 0;
    for (size_t i = 0; i < site.size(); ++i) {
      const Attribute& a = site[i];
      const core::ExtractionRouter::Page& shared = pages[i];
      core::ExtractionRouter::Page alone =
          router.Extract(*a.wrapper, a.plan.get(), page);
      core::ExtractionRouter::Page reference =
          interpreter.Extract(*a.wrapper, a.plan.get(), page);
      EXPECT_EQ(shared.route(), alone.route()) << a.name;
      EXPECT_EQ(shared.fallback(), alone.fallback()) << a.name;
      EXPECT_EQ(Copy(shared.values()), Copy(alone.values()))
          << a.name << " on '" << page << "'";
      EXPECT_EQ(Copy(shared.values()), Copy(reference.values()))
          << a.name << " on '" << page << "'";
      if (shared.route() == core::ExtractRoute::kStreamingDelimiter) {
        EXPECT_EQ(shared.tier(), alone.tier()) << a.name;
        if (!shared.shared_stream()) ++builds;
      } else {
        EXPECT_FALSE(shared.shared_stream()) << a.name;
      }
    }
    EXPECT_EQ(builds, 1) << page;
    EXPECT_EQ(pages[1].route(), core::ExtractRoute::kStreamingXPath);
    EXPECT_EQ(pages[5].fallback(),
              core::StreamingFallback::kUnstreamableXPath);
    EXPECT_EQ(pages[6].fallback(), core::StreamingFallback::kNoPlan);
  }
}

TEST(SiteScanTest, BuildsNothingWithoutADomFreePlan) {
  std::vector<Attribute> site = MixedSite();
  const std::string page = kMixedPages[0];

  core::ExtractionRouter router;
  core::ExtractionRouter::SiteScan scan = router.ScanSite(page);
  for (size_t i : {1, 5, 6}) {  // XPath, 0-step XPath, no plan.
    scan.Extract(*site[i].wrapper, site[i].plan.get());
  }
  EXPECT_FALSE(scan.built());

  // With the fast path off every attribute takes the interpreter.
  core::ExtractionRouter interpreter(
      core::ExtractionRouter::Options{.fast_path = false});
  core::ExtractionRouter::SiteScan off = interpreter.ScanSite(page);
  for (const Attribute& a : site) {
    core::ExtractionRouter::Page routed = off.Extract(*a.wrapper, a.plan.get());
    EXPECT_EQ(routed.route(), core::ExtractRoute::kInterpreter) << a.name;
    EXPECT_EQ(routed.fallback(), core::StreamingFallback::kDisabled);
  }
  EXPECT_FALSE(off.built());
}

TEST(SiteScanTest, SingleDelimiterAttributeBuildsItsOwnPage) {
  Attribute bold =
      Compiled("bold", std::make_shared<core::LrWrapper>("<b>", "</b>"));
  core::ExtractionRouter router;
  core::ExtractionRouter::SiteScan scan = router.ScanSite(kMixedPages[0]);
  core::ExtractionRouter::Page page =
      scan.Extract(*bold.wrapper, bold.plan.get());
  EXPECT_TRUE(scan.built());
  EXPECT_FALSE(page.shared_stream());
  EXPECT_EQ(Copy(page.values()), (Values{"one", "two", "three"}));
}

// ---------------------------------------------------------------------
// Service layer: attribute=* over the repository backends.
// ---------------------------------------------------------------------

serve::HttpRequest ExtractRequest(const std::string& site,
                                  const std::string& attribute,
                                  std::string page) {
  serve::HttpRequest request;
  request.method = "POST";
  request.target = "/extract?site=" + site + "&attribute=" + attribute;
  request.path = "/extract";  // The server's parser fills these in.
  request.query = {{"site", site}, {"attribute", attribute}};
  request.body = std::move(page);
  return request;
}

// The `"values":[...]` array of a single-attribute response ("values" is
// its last member).
std::string ValuesArray(const serve::HttpResponse& response) {
  size_t at = response.body.find(",\"values\":");
  EXPECT_NE(at, std::string::npos) << response.body;
  if (at == std::string::npos) return std::string();
  at += sizeof(",\"values\":") - 1;
  return response.body.substr(at, response.body.size() - 2 - at);
}

// Asserts `site`'s attribute=* answer from `service` equals the
// per-attribute single requests joined into one "attributes" object, and
// equals the interpreter's attribute=* answer byte for byte.
void ExpectMultiMatchesSingles(const serve::ExtractService& service,
                               const serve::ExtractService& interpreter,
                               const serve::WrapperRepository& repository,
                               const std::string& site,
                               const std::string& page) {
  serve::HttpResponse multi = service.Handle(ExtractRequest(site, "*", page));
  ASSERT_EQ(multi.status, 200) << site << ": " << multi.body;
  serve::HttpResponse reference =
      interpreter.Handle(ExtractRequest(site, "*", page));
  EXPECT_EQ(multi.status, reference.status) << site;
  EXPECT_EQ(multi.body, reference.body) << site;

  std::string expected = "\"attributes\":{";
  bool first = true;
  for (const auto& [attribute, entry] :
       repository.Pin()->MaterializeSite(site)) {
    serve::HttpResponse single =
        service.Handle(ExtractRequest(site, attribute, page));
    ASSERT_EQ(single.status, 200) << site << "/" << attribute;
    if (!first) expected += ',';
    first = false;
    expected += "\"" + attribute + "\":" + ValuesArray(single);
  }
  expected += "}}\n";
  ASSERT_GE(multi.body.size(), expected.size());
  EXPECT_EQ(multi.body.substr(multi.body.size() - expected.size()), expected)
      << site;
}

// Compiles the `<root>/<site>/<attribute>.wrapper` tree into a pack.
void WritePackFromDirectory(const std::string& root, const std::string& pack) {
  core::WrapperPackBuilder builder;
  auto site_dirs = ListSubdirectories(root);
  ASSERT_TRUE(site_dirs.ok());
  for (const std::string& site_dir : *site_dirs) {
    std::string site = std::filesystem::path(site_dir).filename().string();
    auto files = ListFiles(site_dir, kSuffix);
    ASSERT_TRUE(files.ok());
    for (const std::string& file : *files) {
      std::string attr = std::filesystem::path(file).filename().string();
      attr.resize(attr.size() - (sizeof(kSuffix) - 1));
      auto record = ReadFile(file);
      ASSERT_TRUE(record.ok());
      ASSERT_TRUE(builder.Add(site, attr, *record).ok());
    }
  }
  ASSERT_TRUE(builder.WriteFile(pack).ok());
}

void WriteWrapper(const std::string& root, const std::string& site,
                  const std::string& attribute, const core::Wrapper& wrapper) {
  auto record = core::SerializeWrapper(wrapper);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE(MakeDirs(root + "/" + site).ok());
  ASSERT_TRUE(
      WriteFile(root + "/" + site + "/" + attribute + kSuffix, *record + "\n")
          .ok());
}

class SiteScanServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = (std::filesystem::temp_directory_path() /
             ("ntw_site_scan_test_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
  }

  void TearDown() override { std::filesystem::remove_all(work_); }

  std::string work_;
  ThreadPool pool_{2};
};

// A page that hits every dom_free delimiter set of the site twice, plus a
// list the synthetic XPath plans can reach.
std::string PageFor(const serve::WrapperRepository& repository,
                    const std::string& site) {
  std::string page =
      "<html><body><div class=\"c1\"><li>x</li><li>y</li></div>";
  for (const auto& [attribute, entry] :
       repository.Pin()->MaterializeSite(site)) {
    const core::CompiledWrapper& plan = *entry->compiled;
    if (!plan.dom_free()) continue;
    page += plan.head();
    for (int v = 0; v < 2; ++v) {
      page += plan.left() + attribute + StrFormat("_%d", v) + plan.right();
    }
    page += plan.tail();
  }
  return page + "</body></html>";
}

// Synthetic sites rotate LR, HLRT and XPath plans: every site mixes two
// delimiter attributes with one XPath attribute.
TEST_F(SiteScanServiceTest, PackBackendMatchesDirectoryBackend) {
  std::string root = work_ + "/repo";
  sitegen::SyntheticRepositoryOptions options;
  options.sites = 9;
  options.attrs = 3;
  options.seed = 41;
  ASSERT_TRUE(sitegen::WriteSyntheticWrapperRepository(options, root).ok());
  std::string pack = work_ + "/wrappers.pack";
  WritePackFromDirectory(root, pack);

  serve::WrapperRepository dir_repo(root);
  ASSERT_TRUE(dir_repo.Load().ok());
  serve::WrapperRepository pack_repo(
      serve::WrapperRepository::Options{std::string(), pack});
  ASSERT_TRUE(pack_repo.Load().ok());
  ASSERT_NE(pack_repo.Pin()->pack, nullptr);

  serve::ExtractService dir_service(&dir_repo, &pool_);
  serve::ExtractService pack_service(&pack_repo, &pool_);
  serve::ExtractService::Options off{.fast_path = false};
  serve::ExtractService dir_interpreter(&dir_repo, &pool_, off);
  serve::ExtractService pack_interpreter(&pack_repo, &pool_, off);

  for (size_t s = 0; s < options.sites; ++s) {
    std::string site = StrFormat("site_%06zu", s);
    std::string page = PageFor(dir_repo, site);
    EXPECT_EQ(page, PageFor(pack_repo, site));
    ExpectMultiMatchesSingles(dir_service, dir_interpreter, dir_repo, site,
                              page);
    ExpectMultiMatchesSingles(pack_service, pack_interpreter, pack_repo, site,
                              page);
    serve::HttpResponse from_dir =
        dir_service.Handle(ExtractRequest(site, "*", page));
    serve::HttpResponse from_pack =
        pack_service.Handle(ExtractRequest(site, "*", page));
    EXPECT_EQ(from_dir.body, from_pack.body) << site;
    // The page actually extracts every delimiter attribute.
    EXPECT_NE(from_dir.body.find("_1\""), std::string::npos) << from_dir.body;
  }

  // Unknown sites 404 in multi-attribute mode.
  EXPECT_EQ(dir_service.Handle(ExtractRequest("no_such_site", "*", "<p>"))
                .status,
            404);
}

// Origin sites carry one XPath and one LR wrapper: one delimiter
// attribute, so the shared StreamPage serves a single plan.
TEST_F(SiteScanServiceTest, OneDelimiterAttributeOriginSites) {
  sitegen::OriginOptions options;
  options.sites = 3;
  options.pages_per_site = 2;
  sitegen::OriginCorpus corpus = sitegen::MakeOriginCorpus(options);
  std::string root = work_ + "/repo";
  ASSERT_TRUE(sitegen::WriteOriginWrapperRepository(corpus, root).ok());
  std::string pack = work_ + "/wrappers.pack";
  WritePackFromDirectory(root, pack);

  serve::WrapperRepository dir_repo(root);
  ASSERT_TRUE(dir_repo.Load().ok());
  serve::WrapperRepository pack_repo(
      serve::WrapperRepository::Options{std::string(), pack});
  ASSERT_TRUE(pack_repo.Load().ok());
  serve::ExtractService::Options off{.fast_path = false};
  serve::ExtractService dir_service(&dir_repo, &pool_);
  serve::ExtractService pack_service(&pack_repo, &pool_);
  serve::ExtractService interpreter(&dir_repo, &pool_, off);

  for (const sitegen::OriginSite& site : corpus.sites) {
    ASSERT_EQ(dir_repo.Pin()->MaterializeSite(site.key).size(), 2u);
    for (const std::string& page : site.page_html) {
      ExpectMultiMatchesSingles(dir_service, interpreter, dir_repo, site.key,
                                page);
      ExpectMultiMatchesSingles(pack_service, interpreter, pack_repo,
                                site.key, page);
    }
  }
}

TEST_F(SiteScanServiceTest, SiteWithOneAttribute) {
  std::string root = work_ + "/repo";
  WriteWrapper(root, "solo", "name", core::LrWrapper("<b>", "</b>"));
  serve::WrapperRepository repository(root);
  ASSERT_TRUE(repository.Load().ok());
  serve::ExtractService service(&repository, &pool_);
  serve::ExtractService interpreter(
      &repository, &pool_, serve::ExtractService::Options{.fast_path = false});
  for (const char* page : kMixedPages) {
    ExpectMultiMatchesSingles(service, interpreter, repository, "solo", page);
  }
  serve::HttpResponse response =
      service.Handle(ExtractRequest("solo", "*", kMixedPages[0]));
  EXPECT_NE(response.body.find("\"attributes\":{\"name\":[\"one\",\"two\","
                               "\"three\"]}"),
            std::string::npos)
      << response.body;
}

// An overlay publish over a pack site: attribute=* must use the overlay's
// delimiters, not the shadowed pack record's.
TEST_F(SiteScanServiceTest, OverlayPublishShadowsPackDelimiters) {
  core::WrapperPackBuilder builder;
  for (const auto& [attribute, left, right] :
       {std::tuple<const char*, const char*, const char*>{"a", "<b>", "</b>"},
        {"b", "<i>", "</i>"},
        {"c", "<u>", "</u>"}}) {
    auto record = core::SerializeWrapper(core::LrWrapper(left, right));
    ASSERT_TRUE(record.ok());
    ASSERT_TRUE(builder.Add("shop", attribute, *record).ok());
  }
  std::string pack = work_ + "/wrappers.pack";
  ASSERT_TRUE(builder.WriteFile(pack).ok());

  serve::WrapperRepository repository(
      serve::WrapperRepository::Options{std::string(), pack});
  ASSERT_TRUE(repository.Load().ok());
  ASSERT_TRUE(repository
                  .PublishWrapper("shop", "b",
                                  std::make_shared<core::LrWrapper>("<em>",
                                                                    "</em>"))
                  .ok());
  auto pin = repository.Pin();
  ASSERT_NE(pin->pack, nullptr);
  auto entries = pin->MaterializeSite("shop");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1].first, "b");
  EXPECT_EQ(entries[1].second->compiled->left(), "<em>");

  serve::ExtractService service(&repository, &pool_);
  serve::ExtractService interpreter(
      &repository, &pool_, serve::ExtractService::Options{.fast_path = false});
  for (const char* page :
       {"<p><b>one</b><i>stale</i><em>fresh</em><u>three</u></p>",
        "<i>only the shadowed delimiter</i>", ""}) {
    ExpectMultiMatchesSingles(service, interpreter, repository, "shop", page);
    serve::HttpResponse response =
        service.Handle(ExtractRequest("shop", "*", page));
    EXPECT_EQ(response.body.find("stale"), std::string::npos)
        << response.body;
  }
  EXPECT_NE(service.Handle(ExtractRequest("shop", "*", "<em>fresh</em>"))
                .body.find("\"b\":[\"fresh\"]"),
            std::string::npos);
}

// One StreamPage build per attribute=* page, whatever the number of
// delimiter attributes: the tier counters and shared_stream_pages grow by
// one per page, not by one per attribute.
TEST_F(SiteScanServiceTest, OneStreamPageBuildPerPage) {
  std::string root = work_ + "/repo";
  WriteWrapper(root, "shop", "bold", core::LrWrapper("<b>", "</b>"));
  WriteWrapper(root, "shop", "italic", core::LrWrapper("<i>", "</i>"));
  WriteWrapper(root, "shop", "list",
               core::HlrtWrapper("<ul>", "</ul>", "<li>", "</li>"));
  WriteWrapper(root, "shop", "tree", *XPath("//li/text()"));
  serve::WrapperRepository repository(root);
  ASSERT_TRUE(repository.Load().ok());
  serve::ExtractService service(&repository, &pool_);

  obs::Registry& registry = obs::Registry::Global();
  auto counter = [&](const char* name) {
    return registry.GetShardedCounter(name)->value();
  };
  auto tier_pages = [&] {
    return counter("ntw.serve.streaming_verbatim_pages") +
           counter("ntw.serve.streaming_patched_pages") +
           counter("ntw.serve.streaming_flattened_pages");
  };
  int64_t tiers_before = tier_pages();
  int64_t shared_before = counter("ntw.serve.shared_stream_pages");
  int64_t streaming_before = counter("ntw.serve.streaming_pages");

  constexpr int kPages = 5;
  for (int i = 0; i < kPages; ++i) {
    std::string page = StrFormat(
        "<p><b>b%d</b><i>i%d</i><ul><li>l%d</li></ul></p>", i, i, i);
    serve::HttpResponse response =
        service.Handle(ExtractRequest("shop", "*", page));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find(StrFormat("\"list\":[\"l%d\"]", i)),
              std::string::npos)
        << response.body;
  }
  EXPECT_EQ(tier_pages() - tiers_before, kPages);
  EXPECT_EQ(counter("ntw.serve.shared_stream_pages") - shared_before, kPages);
  // Every attribute of every page still streamed (XPath included).
  EXPECT_EQ(counter("ntw.serve.streaming_pages") - streaming_before,
            4 * kPages);
}

}  // namespace
}  // namespace ntw
