#include "core/fused_matcher.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>

namespace ntw::core {

namespace {

// Serialized automaton layout (all fields u32, native byte order — blobs
// are built in process and never cross machines):
//
//   header     6 * u32   magic, pattern_count P, node_count N,
//                        edge_count E, output_count O, strtab_len S
//   root_table 256 * u32 goto target for each byte at the root (0 = none;
//                        the root is never a goto target, so 0 is free)
//   patterns   P * 2*u32 {off, len} into strtab
//   nodes      N * 5*u32 {fail, edge_begin, edge_count, out_begin,
//                        out_count}
//   edges      E * u32   byte << 24 | target  (sorted by byte per node)
//   outputs    O * u32   pattern id (fail-chain outputs flattened in at
//                        build time, so the scan never walks fail links
//                        just to report)
//   strtab     S bytes
//
// Everything is offset-based, so the extractor can be copied or moved
// without fixing up pointers.

constexpr uint32_t kAcMagic = 0x31434146u;  // "FAC1"
constexpr size_t kHeaderWords = 6;
constexpr size_t kRootWords = 256;
constexpr size_t kPatternWords = 2;
constexpr size_t kNodeWords = 5;
// Edge words pack the target into 24 bits.
constexpr uint32_t kMaxNodes = 1u << 24;

inline uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

struct AcView {
  const char* base = nullptr;
  uint32_t pattern_count = 0;
  uint32_t node_count = 0;
  uint32_t edge_count = 0;
  uint32_t output_count = 0;
  uint32_t strtab_len = 0;
  const char* root_table = nullptr;
  const char* patterns = nullptr;
  const char* nodes = nullptr;
  const char* edges = nullptr;
  const char* outputs = nullptr;
  const char* strtab = nullptr;

  // Lays the sections out over `blob`; false if the sizes don't add up.
  bool Bind(std::string_view blob) {
    if (blob.size() < kHeaderWords * 4) return false;
    base = blob.data();
    if (LoadU32(base) != kAcMagic) return false;
    pattern_count = LoadU32(base + 4);
    node_count = LoadU32(base + 8);
    edge_count = LoadU32(base + 12);
    output_count = LoadU32(base + 16);
    strtab_len = LoadU32(base + 20);
    if (node_count == 0 || node_count > kMaxNodes) return false;
    // Overflow-safe total size check: each count is < 2^32 and each
    // multiplier <= 20, so accumulate in 64 bits.
    uint64_t need = kHeaderWords * 4ull;
    need += kRootWords * 4ull;
    need += static_cast<uint64_t>(pattern_count) * kPatternWords * 4;
    need += static_cast<uint64_t>(node_count) * kNodeWords * 4;
    need += static_cast<uint64_t>(edge_count) * 4;
    need += static_cast<uint64_t>(output_count) * 4;
    need += strtab_len;
    if (need != blob.size()) return false;
    root_table = base + kHeaderWords * 4;
    patterns = root_table + kRootWords * 4;
    nodes = patterns + static_cast<size_t>(pattern_count) * kPatternWords * 4;
    edges = nodes + static_cast<size_t>(node_count) * kNodeWords * 4;
    outputs = edges + static_cast<size_t>(edge_count) * 4;
    strtab = outputs + static_cast<size_t>(output_count) * 4;
    return true;
  }

  uint32_t node_field(uint32_t node, size_t field) const {
    return LoadU32(nodes + (static_cast<size_t>(node) * kNodeWords + field) * 4);
  }
  uint32_t edge(size_t index) const { return LoadU32(edges + index * 4); }
  uint32_t output(size_t index) const { return LoadU32(outputs + index * 4); }
  uint32_t root_goto(unsigned char byte) const {
    return LoadU32(root_table + static_cast<size_t>(byte) * 4);
  }
  std::string_view pattern(uint32_t id) const {
    uint32_t off = LoadU32(patterns + static_cast<size_t>(id) * 8);
    uint32_t len = LoadU32(patterns + static_cast<size_t>(id) * 8 + 4);
    return std::string_view(strtab + off, len);
  }

  // Goto transition for a non-root state: binary search the node's
  // byte-sorted edge list. Returns 0 when absent (0 is never a target).
  uint32_t Goto(uint32_t state, unsigned char byte) const {
    uint32_t lo = node_field(state, 1);
    uint32_t hi = lo + node_field(state, 2);
    uint32_t key = static_cast<uint32_t>(byte) << 24;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      uint32_t e = edge(mid);
      if ((e & 0xFF000000u) < key) {
        lo = mid + 1;
      } else if ((e & 0xFF000000u) > key) {
        hi = mid;
      } else {
        return e & 0x00FFFFFFu;
      }
    }
    return 0;
  }
};

}  // namespace

uint32_t AcBuilder::AddPattern(std::string_view pattern) {
  if (pattern.empty()) return kNoPattern;
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (patterns_[i] == pattern) return static_cast<uint32_t>(i);
  }
  patterns_.emplace_back(pattern);
  return static_cast<uint32_t>(patterns_.size() - 1);
}

std::string AcBuilder::Build() const {
  if (patterns_.empty()) return std::string();

  // Goto trie. std::map children keep edges byte-sorted and the BFS
  // deterministic.
  struct TrieNode {
    std::map<unsigned char, uint32_t> children;
    uint32_t fail = 0;
    std::vector<uint32_t> outputs;  // Own matches + fail-chain matches.
  };
  std::vector<TrieNode> trie(1);
  for (size_t p = 0; p < patterns_.size(); ++p) {
    uint32_t state = 0;
    for (char ch : patterns_[p]) {
      auto byte = static_cast<unsigned char>(ch);
      auto it = trie[state].children.find(byte);
      if (it == trie[state].children.end()) {
        uint32_t next = static_cast<uint32_t>(trie.size());
        trie.emplace_back();
        trie[state].children.emplace(byte, next);
        state = next;
      } else {
        state = it->second;
      }
    }
    trie[state].outputs.push_back(static_cast<uint32_t>(p));
  }

  // Fail links by BFS; outputs flattened along the (already finalized)
  // fail chain so the scan loop reports without walking fail links.
  std::deque<uint32_t> queue;
  for (const auto& [byte, child] : trie[0].children) {
    (void)byte;
    queue.push_back(child);
  }
  while (!queue.empty()) {
    uint32_t u = queue.front();
    queue.pop_front();
    for (const auto& [byte, child] : trie[u].children) {
      uint32_t f = trie[u].fail;
      while (f != 0) {
        auto it = trie[f].children.find(byte);
        if (it != trie[f].children.end()) {
          f = it->second;
          break;
        }
        f = trie[f].fail;
      }
      if (f == 0) {
        auto it = trie[0].children.find(byte);
        f = (it != trie[0].children.end() && it->second != child) ? it->second
                                                                  : 0;
      }
      trie[child].fail = f;
      const auto& inherited = trie[f].outputs;
      trie[child].outputs.insert(trie[child].outputs.end(), inherited.begin(),
                                 inherited.end());
      queue.push_back(child);
    }
  }

  // Serialize.
  uint32_t edge_total = 0;
  uint32_t output_total = 0;
  for (const TrieNode& node : trie) {
    edge_total += static_cast<uint32_t>(node.children.size());
    output_total += static_cast<uint32_t>(node.outputs.size());
  }
  uint32_t strtab_len = 0;
  for (const std::string& p : patterns_) {
    strtab_len += static_cast<uint32_t>(p.size());
  }

  std::string out;
  AppendU32(&out, kAcMagic);
  AppendU32(&out, static_cast<uint32_t>(patterns_.size()));
  AppendU32(&out, static_cast<uint32_t>(trie.size()));
  AppendU32(&out, edge_total);
  AppendU32(&out, output_total);
  AppendU32(&out, strtab_len);
  for (size_t byte = 0; byte < kRootWords; ++byte) {
    auto it = trie[0].children.find(static_cast<unsigned char>(byte));
    AppendU32(&out, it == trie[0].children.end() ? 0u : it->second);
  }
  uint32_t str_off = 0;
  for (const std::string& p : patterns_) {
    AppendU32(&out, str_off);
    AppendU32(&out, static_cast<uint32_t>(p.size()));
    str_off += static_cast<uint32_t>(p.size());
  }
  uint32_t edge_off = 0;
  uint32_t out_off = 0;
  for (const TrieNode& node : trie) {
    AppendU32(&out, node.fail);
    AppendU32(&out, edge_off);
    AppendU32(&out, static_cast<uint32_t>(node.children.size()));
    AppendU32(&out, out_off);
    AppendU32(&out, static_cast<uint32_t>(node.outputs.size()));
    edge_off += static_cast<uint32_t>(node.children.size());
    out_off += static_cast<uint32_t>(node.outputs.size());
  }
  for (const TrieNode& node : trie) {
    for (const auto& [byte, child] : node.children) {
      AppendU32(&out, (static_cast<uint32_t>(byte) << 24) | child);
    }
  }
  for (const TrieNode& node : trie) {
    for (uint32_t p : node.outputs) AppendU32(&out, p);
  }
  for (const std::string& p : patterns_) out.append(p);
  return out;
}

uint32_t FusedAutomaton::pattern_count() const {
  if (blob_.empty()) return 0;
  return LoadU32(blob_.data() + 4);
}

std::string_view FusedAutomaton::pattern(uint32_t id) const {
  AcView view;
  if (!view.Bind(blob_) || id >= view.pattern_count) return {};
  return view.pattern(id);
}

void FusedAutomaton::Scan(std::string_view stream,
                          std::vector<std::vector<size_t>>* occurrences) const {
  occurrences->resize(pattern_count());
  for (auto& list : *occurrences) list.clear();
  if (blob_.empty()) return;
  AcView view;
  if (!view.Bind(blob_)) return;

  // Pattern lengths hoisted out of the report path.
  // (Occurrence *begin* = end-position + 1 - len, matching BMH reports.)
  uint32_t state = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    auto byte = static_cast<unsigned char>(stream[i]);
    for (;;) {
      if (state == 0) {
        state = view.root_goto(byte);  // 0 on miss: stay at root.
        break;
      }
      uint32_t next = view.Goto(state, byte);
      if (next != 0) {
        state = next;
        break;
      }
      state = view.node_field(state, 0);  // fail
    }
    uint32_t out_num = view.node_field(state, 4);
    if (out_num == 0) continue;
    uint32_t out_begin = view.node_field(state, 3);
    for (uint32_t k = 0; k < out_num; ++k) {
      uint32_t p = view.output(out_begin + k);
      (*occurrences)[p].push_back(i + 1 - view.pattern(p).size());
    }
  }
}

std::shared_ptr<const FusedSiteExtractor> FusedSiteExtractor::Build(
    std::vector<std::pair<std::string, std::shared_ptr<const CompiledWrapper>>>
        plans) {
  size_t covered = std::count_if(plans.begin(), plans.end(), [](const auto& p) {
    return p.second != nullptr && p.second->dom_free();
  });
  if (covered < kMinFusedAttributes) return nullptr;
  AcBuilder builder;
  std::vector<Attribute> attributes;
  std::sort(plans.begin(), plans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [name, plan] : plans) {
    if (plan == nullptr || !plan->dom_free()) continue;
    Attribute attr;
    attr.name = std::move(name);
    attr.plan = plan;
    if (plan->is_lr()) {
      attr.left_pattern = builder.AddPattern(plan->left());
    } else if (plan->is_hlrt()) {
      // MatchHlrt never scans for the left delimiter (the in-region span
      // loop memcmps it directly), so only head/tail join the automaton.
      attr.head_pattern = builder.AddPattern(plan->head());
      attr.tail_pattern = builder.AddPattern(plan->tail());
    }
    attributes.push_back(std::move(attr));
  }
  return std::shared_ptr<const FusedSiteExtractor>(
      new FusedSiteExtractor(builder.Build(), std::move(attributes)));
}

FusedSiteExtractor::FusedSiteExtractor(std::string blob,
                                       std::vector<Attribute> attributes)
    : blob_(std::move(blob)),
      automaton_(blob_),
      attributes_(std::move(attributes)) {}

size_t FusedSiteExtractor::FindAttribute(std::string_view name) const {
  auto it = std::lower_bound(
      attributes_.begin(), attributes_.end(), name,
      [](const Attribute& a, std::string_view n) { return a.name < n; });
  if (it == attributes_.end() || it->name != name) {
    return std::string_view::npos;
  }
  return static_cast<size_t>(it - attributes_.begin());
}

void FusedSiteExtractor::ExtractAllStreaming(std::string_view raw_page,
                                             StreamPageBuffer& buffer,
                                             FusedScratch& scratch) const {
  buffer.page.Build(raw_page);
  std::string_view stream = buffer.page.stream();
  automaton_.Scan(stream, &scratch.occurrences);
  scratch.values.resize(attributes_.size());
  auto occ = [&](uint32_t id) -> const std::vector<size_t>* {
    return id == kNoPattern ? nullptr : &scratch.occurrences[id];
  };
  for (size_t i = 0; i < attributes_.size(); ++i) {
    const Attribute& attr = attributes_[i];
    attr.plan->ExtractWithOccurrences(
        stream, buffer.page.spans(), occ(attr.left_pattern),
        occ(attr.head_pattern), occ(attr.tail_pattern), &scratch.values[i]);
  }
}

}  // namespace ntw::core
