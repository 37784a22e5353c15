#ifndef NTW_DATASETS_CORPUS_IO_H_
#define NTW_DATASETS_CORPUS_IO_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "datasets/dataset.h"

namespace ntw::datasets {

/// On-disk corpus format — makes the generated datasets a portable
/// artifact (and exercises the HTML parser on the exact bytes a crawler
/// would hand the production system):
///
///   <dir>/
///     site.txt                site name
///     page_0000.html ...      serialized pages, zero-padded, in order
///     truth.tsv               type \t page \t preorder-index
///     annotations.tsv         type \t page \t preorder-index
///
/// Node references survive the round trip because Serialize → Parse is
/// structure-preserving for generated pages (a tested invariant).

/// Writes one site (pages + ground truth + annotations) to a directory.
Status ExportSite(const SiteData& site, const std::string& directory);

/// Reads a site back: parses every page_*.html and loads both TSV files.
Result<SiteData> ImportSite(const std::string& directory);

/// Writes a whole dataset, one subdirectory per site (site_0000, ...).
Status ExportDataset(const Dataset& dataset, const std::string& directory);

/// Reads a dataset exported by ExportDataset.
Result<Dataset> ImportDataset(const std::string& directory);

/// Parses a directory of raw .html files into a PageSet (no truth /
/// annotations) — the entry point for user-supplied crawls.
Result<core::PageSet> LoadPagesFromDirectory(const std::string& directory);

/// Reads the same .html files in the same (sorted) order as
/// LoadPagesFromDirectory, but returns the raw bytes unparsed — the input
/// the streaming fast path consumes. Index i here corresponds
/// to page i of the PageSet the sibling function builds.
Result<std::vector<std::string>> LoadPageSourcesFromDirectory(
    const std::string& directory);

}  // namespace ntw::datasets

#endif  // NTW_DATASETS_CORPUS_IO_H_
