//===- SiteOverride.cpp ---------------------------------------------------===//
//
// The text form `ETA=SPEC` of per-site mitigation overrides, declared in
// sem/Mitigation.h. Out of Mitigation.cpp, whose schedule code every run
// executes, so that this tool-side code does not shift that code's
// layout.
//
//===----------------------------------------------------------------------===//

#include "sem/Mitigation.h"

#include "support/ParseInt.h"

using namespace zam;

std::optional<SiteOverride> zam::parseSiteOverride(std::string_view Item,
                                                   std::string &Error) {
  Error.clear();
  const size_t Eq = Item.find('=');
  SiteOverride Out;
  if (Eq == std::string_view::npos ||
      !parseInteger(Item.substr(0, Eq), Out.Eta))
    return std::nullopt;
  Out.Policy = parseMitigationPolicy(std::string(Item.substr(Eq + 1)), &Error);
  if (!Out.Policy)
    return std::nullopt;
  return Out;
}

std::string zam::formatSiteOverrides(const PolicySelection &Sel) {
  std::string Out;
  for (const auto &[Eta, P] : Sel.PerSite) {
    if (!Out.empty())
      Out += ',';
    Out += std::to_string(Eta) + "=" + P->spec();
  }
  return Out;
}
