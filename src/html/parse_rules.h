#ifndef NTW_HTML_PARSE_RULES_H_
#define NTW_HTML_PARSE_RULES_H_

#include <string_view>

namespace ntw::html {

/// Tag-soup recovery rules shared by the heap tree builder (parser.cc) and
/// the streaming paths (StreamPage and the fused XPath executor), which
/// must resolve tag soup exactly as the tree does — keeping the rules in
/// one place is what makes the byte-identity contract hold by
/// construction.

/// True when an open <`open`> element is implicitly closed by an incoming
/// start tag <`incoming`> (HTML5 "implied end tags" restricted to what
/// listing pages actually use).
bool CloseImpliedBy(std::string_view open, std::string_view incoming);

/// Elements that act as scope boundaries: an implied close never propagates
/// past them.
bool IsScopeBoundary(std::string_view tag);

}  // namespace ntw::html

#endif  // NTW_HTML_PARSE_RULES_H_
