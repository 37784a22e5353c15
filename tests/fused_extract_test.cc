// Fused multi-attribute extraction tests (DESIGN.md §15). The contract
// under test is byte-identity: the shared Aho–Corasick pass must yield
// exactly the occurrence sets the per-attribute BMH scans enumerate, and
// everything built on it — FusedSiteExtractor, the repository's FindFused
// on both backends (and on a pack site an overlay publish shadows), and
// the service's `attribute=*` endpoint with the fused scan on or off —
// must return the same bytes as the per-attribute path. Sites covering
// fewer than two attributes get no fused extractor at all.

#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/file_util.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/compiled_wrapper.h"
#include "core/fused_matcher.h"
#include "core/hlrt_inductor.h"
#include "core/lr_inductor.h"
#include "core/wrapper_pack.h"
#include "core/wrapper_store.h"
#include "core/xpath_inductor.h"
#include "gtest/gtest.h"
#include "serve/http.h"
#include "serve/service.h"
#include "serve/wrapper_repository.h"
#include "sitegen/origin.h"
#include "xpath/parser.h"

namespace ntw {
namespace {

constexpr char kSuffix[] = ".wrapper";

std::shared_ptr<const core::CompiledWrapper> Plan(const core::Wrapper& w) {
  return core::CompiledWrapper::Compile(w);
}

std::vector<size_t> BmhOccurrences(const core::StringSearcher& searcher,
                                   std::string_view haystack) {
  std::vector<size_t> begins;
  size_t from = 0;
  while (true) {
    size_t pos = searcher.Find(haystack, from);
    if (pos == std::string_view::npos) break;
    begins.push_back(pos);
    from = pos + 1;  // Overlapping occurrences count.
  }
  return begins;
}

TEST(FusedAutomatonTest, ScanMatchesBmhOnRandomInputs) {
  std::mt19937_64 rng(991);
  const char alphabet[] = "abc<>/";  // Small: forces overlaps + shared
                                     // prefixes through the trie.
  for (int round = 0; round < 40; ++round) {
    core::AcBuilder builder;
    std::vector<std::string> patterns;
    std::vector<uint32_t> ids;
    size_t pattern_count = 1 + rng() % 12;
    for (size_t p = 0; p < pattern_count; ++p) {
      std::string pattern;
      size_t len = 1 + rng() % 6;
      for (size_t i = 0; i < len; ++i) {
        pattern.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
      }
      patterns.push_back(pattern);
      ids.push_back(builder.AddPattern(pattern));
    }
    // Duplicates resolve to the same id; empties to kNoPattern.
    EXPECT_EQ(builder.AddPattern(patterns[0]), ids[0]);
    EXPECT_EQ(builder.AddPattern(""), core::kNoPattern);

    std::string blob = builder.Build();
    core::FusedAutomaton automaton(blob);

    std::string haystack;
    size_t hay_len = rng() % 2000;
    for (size_t i = 0; i < hay_len; ++i) {
      haystack.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
    }

    std::vector<std::vector<size_t>> occurrences;
    automaton.Scan(haystack, &occurrences);
    ASSERT_EQ(occurrences.size(), automaton.pattern_count());
    for (size_t p = 0; p < patterns.size(); ++p) {
      core::StringSearcher searcher(patterns[p]);
      EXPECT_EQ(occurrences[ids[p]], BmhOccurrences(searcher, haystack))
          << "round " << round << " pattern '" << patterns[p] << "'";
    }
  }
}

// Plans covering the delimiter edge cases: LR with and without a left
// delimiter, HLRT with head+tail, HLRT whose tail never occurs.
std::vector<std::pair<std::string, std::shared_ptr<const core::CompiledWrapper>>>
EdgeCasePlans() {
  return {
      {"bold", Plan(core::LrWrapper("<b>", "</b>"))},
      {"leftless", Plan(core::LrWrapper("", "</i>"))},
      {"list", Plan(core::HlrtWrapper("<ul>", "</ul>", "<li>", "</li>"))},
      {"notail",
       Plan(core::HlrtWrapper("<ol>", "<!--never-->", "<li>", "</li>"))},
  };
}

const char kEdgeCasePage[] =
    "<html><body><i>first</i><b>one</b> mid <b>two</b>"
    "<ul><li>a1</li><li>a2</li></ul>"
    "<ol><li>b1</li></ol>"
    "<b>three</b><i>last</i></body></html>";

void ExpectFusedMatchesPerAttribute(
    const core::FusedSiteExtractor& fused,
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const core::CompiledWrapper>>>&
        plans,
    std::string_view page) {
  core::StreamPageBuffer fused_buffer;
  core::FusedScratch scratch;
  fused.ExtractAllStreaming(page, fused_buffer, scratch);
  ASSERT_EQ(scratch.values.size(), fused.attributes().size());

  for (const auto& [name, plan] : plans) {
    size_t index = fused.FindAttribute(name);
    ASSERT_NE(index, std::string_view::npos) << name;
    core::StreamPageBuffer buffer;
    std::vector<std::string_view> expected;
    plan->ExtractStreaming(page, buffer, &expected);
    const auto& actual = scratch.values[index];
    ASSERT_EQ(actual.size(), expected.size()) << name;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << name << "[" << i << "]";
    }
  }
}

TEST(FusedSiteExtractorTest, MatchesPerAttributeStreaming) {
  auto plans = EdgeCasePlans();
  auto fused = core::FusedSiteExtractor::Build(plans);
  ASSERT_NE(fused, nullptr);
  ASSERT_EQ(fused->attributes().size(), 4u);
  ExpectFusedMatchesPerAttribute(*fused, plans, kEdgeCasePage);
  // Degenerate inputs go through the same contract.
  ExpectFusedMatchesPerAttribute(*fused, plans, "");
  ExpectFusedMatchesPerAttribute(*fused, plans, "no delimiters at all");
  ExpectFusedMatchesPerAttribute(*fused, plans, "<b>unclosed");
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

serve::HttpRequest MultiAttributeRequest(const std::string& site,
                                         std::string page) {
  serve::HttpRequest request;
  request.method = "POST";
  request.target = "/extract?site=" + site + "&attribute=*";
  request.path = "/extract";  // The server's parser fills these in.
  request.query = {{"site", site}, {"attribute", "*"}};
  request.body = std::move(page);
  return request;
}

// One covered attribute is not worth an automaton: its own BMH scan is
// cheaper than a one-pattern Aho–Corasick pass, so Build declines.
TEST(FusedSiteExtractorTest, FewerThanTwoCoveredAttributesGetNoExtractor) {
  auto expr = xpath::ParseXPath("//b");
  ASSERT_TRUE(expr.ok());
  auto xpath = Plan(core::XPathWrapper(*expr));
  auto lr = Plan(core::LrWrapper("<b>", "</b>"));
  auto other_lr = Plan(core::LrWrapper("<i>", "</i>"));
  EXPECT_EQ(core::FusedSiteExtractor::Build({{"name", lr}}), nullptr);
  EXPECT_EQ(core::FusedSiteExtractor::Build({{"name", lr}, {"tree", xpath}}),
            nullptr);
  EXPECT_NE(
      core::FusedSiteExtractor::Build({{"name", lr}, {"other", other_lr}}),
      nullptr);
}

class FusedRepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = (std::filesystem::temp_directory_path() /
             ("ntw_fused_test_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
    root_ = work_ + "/repo";
    sitegen::SyntheticRepositoryOptions options;
    options.sites = 9;  // Covers every plan-kind rotation.
    options.attrs = 3;
    options.seed = 41;
    ASSERT_TRUE(
        sitegen::WriteSyntheticWrapperRepository(options, root_).ok());

    pack_ = work_ + "/wrappers.pack";
    WritePackFromDirectory(root_, pack_);
  }

  void TearDown() override { std::filesystem::remove_all(work_); }

  // A page that hits every dom_free delimiter set of the site twice.
  static std::string PageFor(const core::FusedSiteExtractor& fused) {
    std::string page = "<html><body>";
    for (const auto& attribute : fused.attributes()) {
      const auto& plan = *attribute.plan;
      page += plan.head();
      for (int v = 0; v < 2; ++v) {
        page += plan.left() + attribute.name + StrFormat("_%d", v) +
                plan.right();
      }
      page += plan.tail();
    }
    page += "</body></html>";
    return page;
  }

  std::string work_;
  std::string root_;
  std::string pack_;
};

TEST_F(FusedRepositoryTest, PackFusedMatchesDirectoryFused) {
  serve::WrapperRepository dir_repo(root_);
  ASSERT_TRUE(dir_repo.Load().ok());
  serve::WrapperRepository pack_repo(
      serve::WrapperRepository::Options{std::string(), pack_});
  ASSERT_TRUE(pack_repo.Load().ok());

  auto dir_pin = dir_repo.Pin();
  auto pack_pin = pack_repo.Pin();
  ASSERT_NE(pack_pin->pack, nullptr);

  int fused_sites = 0;
  for (int s = 0; s < 9; ++s) {
    std::string site = StrFormat("site_%06d", s);
    auto from_dir = dir_pin->FindFused(site);
    auto from_pack = pack_pin->FindFused(site);
    ASSERT_EQ(from_dir == nullptr, from_pack == nullptr) << site;
    if (from_dir == nullptr) continue;
    ++fused_sites;
    // Same attributes, same serialized automaton: both backends build
    // it from the same compiled plans.
    ASSERT_EQ(from_dir->attributes().size(), from_pack->attributes().size());
    EXPECT_EQ(from_dir->blob(), from_pack->blob()) << site;

    std::string page = PageFor(*from_dir);
    core::StreamPageBuffer dir_buffer, pack_buffer;
    core::FusedScratch dir_scratch, pack_scratch;
    from_dir->ExtractAllStreaming(page, dir_buffer, dir_scratch);
    from_pack->ExtractAllStreaming(page, pack_buffer, pack_scratch);
    for (size_t i = 0; i < from_dir->attributes().size(); ++i) {
      EXPECT_EQ(from_dir->attributes()[i].name,
                from_pack->attributes()[i].name);
      const auto& a = dir_scratch.values[i];
      const auto& b = pack_scratch.values[i];
      ASSERT_EQ(a.size(), b.size()) << site;
      EXPECT_GE(a.size(), 2u) << site;  // The page must actually extract.
      for (size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
    }
  }
  EXPECT_GT(fused_sites, 0);
}

TEST_F(FusedRepositoryTest, ServiceMultiAttributeByteIdentity) {
  serve::WrapperRepository dir_repo(root_);
  ASSERT_TRUE(dir_repo.Load().ok());
  serve::WrapperRepository pack_repo(
      serve::WrapperRepository::Options{std::string(), pack_});
  ASSERT_TRUE(pack_repo.Load().ok());
  ThreadPool pool(2);

  serve::ExtractService::Options fused_off;
  fused_off.fused = false;
  serve::ExtractService dir_fused(&dir_repo, &pool);
  serve::ExtractService dir_plain(&dir_repo, &pool, fused_off);
  serve::ExtractService pack_fused(&pack_repo, &pool);
  serve::ExtractService pack_plain(&pack_repo, &pool, fused_off);

  for (int s = 0; s < 9; ++s) {
    std::string site = StrFormat("site_%06d", s);
    auto fused = dir_repo.Pin()->FindFused(site);
    std::string page =
        fused != nullptr
            ? PageFor(*fused)
            : "<html><body><div class=\"c1\"><li>x</li></div></body></html>";
    serve::HttpRequest request = MultiAttributeRequest(site, page);

    serve::HttpResponse baseline = dir_plain.Handle(request);
    ASSERT_EQ(baseline.status, 200) << site << ": " << baseline.body;
    // Fused on/off and directory/pack backends: same bytes.
    for (auto* service : {&dir_fused, &pack_fused, &pack_plain}) {
      serve::HttpResponse response = service->Handle(request);
      EXPECT_EQ(response.status, baseline.status) << site;
      EXPECT_EQ(response.body, baseline.body) << site;
    }
  }

  // Unknown sites 404 in multi-attribute mode.
  serve::HttpRequest missing;
  missing.method = "POST";
  missing.path = "/extract";
  missing.query = {{"site", "no_such_site"}, {"attribute", "*"}};
  missing.body = "<html></html>";
  EXPECT_EQ(dir_fused.Handle(missing).status, 404);
}

// Origin sites carry one XPath and one LR wrapper — a single dom_free
// attribute — so neither backend builds them a fused extractor, and
// `attribute=*` returns the same bytes with the fused scan on or off.
TEST(FusedOriginRepositoryTest, OneDomFreeAttributeSitesAreNotFused) {
  std::string work = (std::filesystem::temp_directory_path() /
                      "ntw_fused_origin_test")
                         .string();
  std::filesystem::remove_all(work);
  sitegen::OriginOptions options;
  options.sites = 3;
  options.pages_per_site = 2;
  sitegen::OriginCorpus corpus = sitegen::MakeOriginCorpus(options);
  ASSERT_TRUE(
      sitegen::WriteOriginWrapperRepository(corpus, work + "/repo").ok());
  WritePackFromDirectory(work + "/repo", work + "/wrappers.pack");

  serve::WrapperRepository dir_repo(work + "/repo");
  ASSERT_TRUE(dir_repo.Load().ok());
  serve::WrapperRepository pack_repo(serve::WrapperRepository::Options{
      std::string(), work + "/wrappers.pack"});
  ASSERT_TRUE(pack_repo.Load().ok());
  ThreadPool pool(2);
  serve::ExtractService::Options fused_off;
  fused_off.fused = false;
  serve::ExtractService dir_fused(&dir_repo, &pool);
  serve::ExtractService dir_plain(&dir_repo, &pool, fused_off);
  serve::ExtractService pack_fused(&pack_repo, &pool);
  serve::ExtractService pack_plain(&pack_repo, &pool, fused_off);

  for (const sitegen::OriginSite& site : corpus.sites) {
    for (serve::WrapperRepository* repo : {&dir_repo, &pack_repo}) {
      auto pin = repo->Pin();
      ASSERT_EQ(pin->MaterializeSite(site.key).size(), 2u) << site.key;
      EXPECT_EQ(pin->FindFused(site.key), nullptr) << site.key;
    }
    for (const std::string& page : site.page_html) {
      serve::HttpRequest request = MultiAttributeRequest(site.key, page);
      serve::HttpResponse baseline = dir_plain.Handle(request);
      ASSERT_EQ(baseline.status, 200) << site.key << ": " << baseline.body;
      for (auto* service : {&dir_fused, &pack_fused, &pack_plain}) {
        serve::HttpResponse response = service->Handle(request);
        EXPECT_EQ(response.status, baseline.status) << site.key;
        EXPECT_EQ(response.body, baseline.body) << site.key;
      }
    }
  }
  std::filesystem::remove_all(work);
}

// The one FindFused case that mixes backends: a pack site whose middle
// LR attribute an overlay publish replaces. The site's extractor must be
// built from the live plans — the overlay's delimiters, not the shadowed
// pack record's — and `attribute=*` must answer with the same bytes as
// the per-attribute path.
TEST(FusedOverlayTest, OverlayPublishShadowsPackDelimiters) {
  std::string work = (std::filesystem::temp_directory_path() /
                      "ntw_fused_overlay_test")
                         .string();
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  core::WrapperPackBuilder builder;
  for (const auto& [attribute, left, right] :
       {std::tuple<const char*, const char*, const char*>{"a", "<b>", "</b>"},
        {"b", "<i>", "</i>"},
        {"c", "<u>", "</u>"}}) {
    auto record = core::SerializeWrapper(core::LrWrapper(left, right));
    ASSERT_TRUE(record.ok());
    ASSERT_TRUE(builder.Add("shop", attribute, *record).ok());
  }
  std::string pack = work + "/wrappers.pack";
  ASSERT_TRUE(builder.WriteFile(pack).ok());

  serve::WrapperRepository repo(
      serve::WrapperRepository::Options{std::string(), pack});
  ASSERT_TRUE(repo.Load().ok());
  auto patterns = [](const core::FusedSiteExtractor& fused) {
    core::FusedAutomaton automaton(fused.blob());
    std::vector<std::string> out;
    for (uint32_t id = 0; id < automaton.pattern_count(); ++id) {
      out.emplace_back(automaton.pattern(id));
    }
    return out;
  };
  {
    auto fused = repo.Pin()->FindFused("shop");
    ASSERT_NE(fused, nullptr);
    EXPECT_EQ(patterns(*fused),
              (std::vector<std::string>{"<b>", "<i>", "<u>"}));
  }

  ASSERT_TRUE(repo.PublishWrapper("shop", "b",
                                  std::make_shared<core::LrWrapper>(
                                      "<em>", "</em>"))
                  .ok());
  auto pin = repo.Pin();
  ASSERT_NE(pin->pack, nullptr);
  auto fused = pin->FindFused("shop");
  ASSERT_NE(fused, nullptr);
  ASSERT_EQ(fused->attributes().size(), 3u);
  EXPECT_EQ(patterns(*fused),
            (std::vector<std::string>{"<b>", "<em>", "<u>"}));
  size_t b = fused->FindAttribute("b");
  ASSERT_NE(b, std::string_view::npos);
  EXPECT_EQ(fused->attributes()[b].plan->left(), "<em>");
  EXPECT_EQ(fused->attributes()[b].plan, pin->Find("shop", "b")->compiled);

  ThreadPool pool(2);
  serve::ExtractService::Options fused_off;
  fused_off.fused = false;
  serve::ExtractService with_fused(&repo, &pool);
  serve::ExtractService without_fused(&repo, &pool, fused_off);
  for (const char* page :
       {"<p><b>one</b><i>stale</i><em>fresh</em><u>three</u></p>",
        "<i>only the shadowed delimiter</i>", ""}) {
    serve::HttpRequest request = MultiAttributeRequest("shop", page);
    serve::HttpResponse expected = without_fused.Handle(request);
    ASSERT_EQ(expected.status, 200) << expected.body;
    EXPECT_EQ(expected.body.find("stale"), std::string::npos)
        << expected.body;
    serve::HttpResponse actual = with_fused.Handle(request);
    EXPECT_EQ(actual.status, expected.status);
    EXPECT_EQ(actual.body, expected.body);
  }
  EXPECT_NE(without_fused.Handle(MultiAttributeRequest(
                                     "shop", "<em>fresh</em>"))
                .body.find("\"b\":[\"fresh\"]"),
            std::string::npos);
  std::filesystem::remove_all(work);
}

}  // namespace
}  // namespace ntw
