#include "core/multi_type.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace ntw::core {

NodeSet RecordSet::TypeNodes(size_t type_index) const {
  std::vector<NodeRef> refs;
  refs.reserve(records.size());
  for (const auto& record : records) {
    refs.push_back(record[type_index]);
  }
  return NodeSet(std::move(refs));
}

RecordSet AssembleRecords(const PageSet& pages,
                          const std::vector<NodeSet>& typed_extractions) {
  RecordSet out;
  const size_t num_types = typed_extractions.size();
  if (num_types == 0) return out;

  for (size_t p = 0; p < pages.size(); ++p) {
    // Typed occurrences on this page in document order.
    std::vector<std::pair<NodeRef, size_t>> occurrences;
    for (size_t t = 0; t < num_types; ++t) {
      for (const NodeRef& ref : typed_extractions[t]) {
        if (ref.page == static_cast<int>(p)) occurrences.emplace_back(ref, t);
      }
    }
    std::sort(occurrences.begin(), occurrences.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (occurrences.empty()) continue;

    // A node claimed by two types is ambiguous: the page cannot assemble.
    bool duplicate_node = false;
    for (size_t i = 1; i < occurrences.size(); ++i) {
      if (occurrences[i].first == occurrences[i - 1].first) {
        duplicate_node = true;
      }
    }
    if (duplicate_node) {
      out.failed_pages.push_back(static_cast<int>(p));
      continue;
    }

    // The sequence must be k repetitions of one type permutation.
    if (occurrences.size() % num_types != 0) {
      out.failed_pages.push_back(static_cast<int>(p));
      continue;
    }
    std::vector<size_t> pattern;
    for (size_t i = 0; i < num_types; ++i) {
      pattern.push_back(occurrences[i].second);
    }
    std::vector<size_t> sorted_pattern = pattern;
    std::sort(sorted_pattern.begin(), sorted_pattern.end());
    bool is_permutation = true;
    for (size_t i = 0; i < num_types; ++i) {
      if (sorted_pattern[i] != i) is_permutation = false;
    }
    bool repeats = true;
    for (size_t i = 0; i < occurrences.size(); ++i) {
      if (occurrences[i].second != pattern[i % num_types]) repeats = false;
    }
    if (!is_permutation || !repeats) {
      out.failed_pages.push_back(static_cast<int>(p));
      continue;
    }

    for (size_t rec = 0; rec < occurrences.size() / num_types; ++rec) {
      std::vector<NodeRef> record(num_types);
      for (size_t i = 0; i < num_types; ++i) {
        size_t type = occurrences[rec * num_types + i].second;
        record[type] = occurrences[rec * num_types + i].first;
      }
      out.records.push_back(std::move(record));
    }
  }
  return out;
}

Prf EvaluateRecords(const PageSet& pages, const RecordSet& extracted,
                    const std::vector<NodeSet>& typed_truth) {
  RecordSet truth_records = AssembleRecords(pages, typed_truth);

  auto record_key = [](const std::vector<NodeRef>& record) {
    std::string key;
    for (const NodeRef& ref : record) {
      key += std::to_string(ref.page) + ":" + std::to_string(ref.node) + ";";
    }
    return key;
  };
  std::set<std::string> truth_keys;
  for (const auto& record : truth_records.records) {
    truth_keys.insert(record_key(record));
  }

  Prf prf;
  prf.extracted = extracted.records.size();
  prf.expected = truth_records.records.size();
  for (const auto& record : extracted.records) {
    if (truth_keys.count(record_key(record)) > 0) ++prf.true_positives;
  }
  prf.precision = prf.extracted == 0
                      ? 1.0
                      : static_cast<double>(prf.true_positives) /
                            static_cast<double>(prf.extracted);
  prf.recall = prf.expected == 0
                   ? 1.0
                   : static_cast<double>(prf.true_positives) /
                         static_cast<double>(prf.expected);
  prf.f1 = (prf.precision + prf.recall) > 0
               ? 2 * prf.precision * prf.recall /
                     (prf.precision + prf.recall)
               : 0.0;
  return prf;
}

namespace {

Status ValidateLabels(const MultiTypeLabels& labels) {
  if (labels.labels.empty() ||
      labels.labels.size() != labels.type_names.size()) {
    return Status::InvalidArgument("malformed multi-type label sets");
  }
  for (const NodeSet& l : labels.labels) {
    if (l.empty()) {
      return Status::InvalidArgument("a type has no labels");
    }
  }
  return Status::OK();
}

}  // namespace

Result<MultiTypeOutcome> LearnMultiTypeNtw(
    const WrapperInductor& inductor, const PageSet& pages,
    const MultiTypeLabels& labels,
    const std::vector<AnnotationModel>& annotation_models,
    const PublicationModel& publication_model,
    const MultiTypeOptions& options) {
  NTW_RETURN_IF_ERROR(ValidateLabels(labels));
  if (annotation_models.size() != labels.labels.size()) {
    return Status::InvalidArgument(
        "need one annotation model per type");
  }
  const size_t num_types = labels.labels.size();

  // Per-type enumeration + shortlist by annotation likelihood.
  std::vector<std::vector<Candidate>> shortlists(num_types);
  int64_t total_calls = 0;
  for (size_t t = 0; t < num_types; ++t) {
    NTW_ASSIGN_OR_RETURN(
        WrapperSpace space,
        Enumerate(options.algorithm, inductor, pages, labels.labels[t]));
    total_calls += space.inductor_calls;
    std::vector<std::pair<double, size_t>> scored;
    for (size_t i = 0; i < space.candidates.size(); ++i) {
      scored.emplace_back(annotation_models[t].LogProb(
                              labels.labels[t],
                              space.candidates[i].extraction),
                          i);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });
    size_t keep = std::min(options.shortlist, scored.size());
    for (size_t i = 0; i < keep; ++i) {
      shortlists[t].push_back(space.candidates[scored[i].second]);
    }
    if (shortlists[t].empty()) {
      return Status::FailedPrecondition("empty wrapper space for type " +
                                        labels.type_names[t]);
    }
  }

  // Joint ranking over the cross product, segmenting every combination
  // from one flattening of the pages.
  const FlattenedPages flat(pages);
  std::vector<size_t> pick(num_types, 0);
  MultiTypeOutcome best;
  best.score = -std::numeric_limits<double>::infinity();
  bool found = false;

  for (;;) {
    // Score this combination.
    std::vector<NodeSet> extractions;
    extractions.reserve(num_types);
    double annotation_score = 0.0;
    for (size_t t = 0; t < num_types; ++t) {
      const Candidate& candidate = shortlists[t][pick[t]];
      extractions.push_back(candidate.extraction);
      annotation_score +=
          annotation_models[t].LogProb(labels.labels[t],
                                       candidate.extraction);
    }
    RecordSet records = AssembleRecords(pages, extractions);
    if (!records.records.empty()) {
      // Publication score on the typed segmentation: boundaries from the
      // assembled records' first type; typed nodes get distinct tokens so
      // alignment requires types to correspond.
      std::vector<NodeSet> typed_nodes;
      typed_nodes.reserve(num_types);
      for (size_t t = 0; t < num_types; ++t) {
        typed_nodes.push_back(records.TypeNodes(t));
      }
      std::vector<const NodeSet*> typed_ptrs;
      for (const NodeSet& ns : typed_nodes) typed_ptrs.push_back(&ns);
      ListFeatures features =
          ComputeListFeatures(flat.SegmentRecords(typed_ptrs));
      double score = annotation_score + publication_model.LogProb(features);
      // Penalize combinations that fail on pages: each failed page voids
      // its records, which the annotation term already partially reflects,
      // but an explicit penalty keeps fragile combinations down-ranked.
      score -= 2.0 * static_cast<double>(records.failed_pages.size());
      if (score > best.score) {
        best.score = score;
        best.per_type.clear();
        for (size_t t = 0; t < num_types; ++t) {
          best.per_type.push_back(shortlists[t][pick[t]]);
        }
        best.records = std::move(records);
        found = true;
      }
    }

    // Advance the cross-product odometer.
    size_t t = 0;
    while (t < num_types && ++pick[t] == shortlists[t].size()) {
      pick[t] = 0;
      ++t;
    }
    if (t == num_types) break;
  }

  if (!found) {
    return Status::NotFound(
        "no wrapper combination assembles records on any page");
  }
  best.inductor_calls = total_calls;
  return best;
}

Result<MultiTypeOutcome> LearnMultiTypeNaive(const WrapperInductor& inductor,
                                             const PageSet& pages,
                                             const MultiTypeLabels& labels) {
  NTW_RETURN_IF_ERROR(ValidateLabels(labels));
  const size_t num_types = labels.labels.size();

  MultiTypeOutcome outcome;
  std::vector<NodeSet> extractions;
  for (size_t t = 0; t < num_types; ++t) {
    Induction induction = inductor.Induce(pages, labels.labels[t]);
    ++outcome.inductor_calls;
    Candidate candidate;
    candidate.wrapper = induction.wrapper;
    candidate.extraction = induction.extraction;
    candidate.trained_on = labels.labels[t];
    extractions.push_back(candidate.extraction);
    outcome.per_type.push_back(std::move(candidate));
  }
  outcome.records = AssembleRecords(pages, extractions);
  return outcome;
}

}  // namespace ntw::core
