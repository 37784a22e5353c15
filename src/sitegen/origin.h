#ifndef NTW_SITEGEN_ORIGIN_H_
#define NTW_SITEGEN_ORIGIN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sitegen/site.h"

namespace ntw::sitegen {

/// Configuration of a multi-site crawl origin: a miniature "web" of
/// script-generated dealer-locator sites, materialized as files so the
/// crawler can fetch it over file:// or through the static-file HTTP
/// origin with zero external dependencies.
struct OriginOptions {
  size_t sites = 8;
  size_t pages_per_site = 6;
  size_t min_records = 2;
  size_t max_records = 8;
  uint64_t seed = 17;
  /// Emit `<root>/index.html` linking every page in sorted order — the
  /// single seed a depth-1 crawl discovers the whole corpus from, in an
  /// order that matches offline LoadPagesFromDirectory iteration.
  bool write_root_index = true;
  /// Verbatim `<root>/robots.txt` content; empty = no file (allow-all).
  std::string robots_txt;
};

/// One generated site of the origin plus everything needed to learn its
/// wrappers and to verify a crawl against ground truth.
struct OriginSite {
  /// Directory name and repository site key ("site_0000", ...).
  std::string key;
  /// Pages + per-type ground truth (truth["name"]) for inductor input.
  GeneratedSite site;
  /// Serialized page bytes, index-aligned with `site.pages` — exactly
  /// what WriteOriginTree puts into page_NNNN.html.
  std::vector<std::string> page_html;
};

struct OriginCorpus {
  OriginOptions options;
  std::vector<OriginSite> sites;

  /// "page_0007.html" — the on-disk name of page `page` of a site.
  static std::string PageFileName(size_t page);
};

/// Deterministically generates the corpus (pure function of options).
/// Every site renders three fields per record (business name — the
/// "name" extraction target — street, phone) through its own random
/// ListTemplate and chrome, so the 8+ sites cover several markup idioms
/// and both delimiter-friendly and tree-only wrapper shapes.
OriginCorpus MakeOriginCorpus(const OriginOptions& options);

/// Materializes `<root>/<site>/page_NNNN.html` (+ optional index.html and
/// robots.txt at the root).
Status WriteOriginTree(const OriginCorpus& corpus, const std::string& root);

/// Learns wrappers for every site from its ground truth and writes a
/// WrapperRepository tree: `<root>/<site>/name.wrapper` (XPATH; the
/// streaming XPath executor) and `<root>/<site>/name_lr.wrapper` (LR;
/// dom_free, the streaming delimiter path) — the crawl then exercises
/// both streaming routes.
Status WriteOriginWrapperRepository(const OriginCorpus& corpus,
                                    const std::string& root);

/// Scale-mode repository generator (`ntw_origin --sites N --attrs M`):
/// writes `<root>/site_NNNNNN/attr_NN.wrapper` for `sites` sites with
/// `attrs` wrappers each — records only, no page trees — cycling plan
/// kinds (LR, HLRT, XPATH) with seed-varied delimiters. Pure function of
/// the options; feeds the repository bench and pack roundtrip tests,
/// where the interesting axis is repository size, not page content.
struct SyntheticRepositoryOptions {
  size_t sites = 1000;
  size_t attrs = 2;
  uint64_t seed = 17;
};

/// Streams every record of the synthetic repository to `fn(site,
/// attribute, record)` in (site, attribute) order without touching the
/// filesystem — the record string includes the trailing newline that
/// WriteSyntheticWrapperRepository stores on disk, so consumers that pack
/// records directly (bench_repo) produce byte-identical entries to a
/// pack built from the written tree. Stops at the first non-OK status
/// from `fn` and returns it.
Status ForEachSyntheticWrapperRecord(
    const SyntheticRepositoryOptions& options,
    const std::function<Status(const std::string& site,
                               const std::string& attribute,
                               const std::string& record)>& fn);

/// Materializes the same records as a `<root>/site_NNNNNN/attr_NN.wrapper`
/// tree (one ForEachSyntheticWrapperRecord pass + WriteFile per record).
Status WriteSyntheticWrapperRepository(
    const SyntheticRepositoryOptions& options, const std::string& root);

}  // namespace ntw::sitegen

#endif  // NTW_SITEGEN_ORIGIN_H_
