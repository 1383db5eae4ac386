//===- ParseInt.h - Checked integer parsing ---------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser numeric command-line and spec fields go through. Unlike
/// strtoull (which accepts "-1" and wraps it) or stoll (which throws on
/// overflow), it rejects everything but a value the target type holds.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SUPPORT_PARSEINT_H
#define ZAM_SUPPORT_PARSEINT_H

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace zam {

/// Parses all of \p S as a base-10 integer of type \p T: digits with an
/// optional leading '-' for signed \p T only, no whitespace, no '+', no
/// trailing text, and no value out of \p T's range. \returns false and
/// leaves \p Out unchanged otherwise.
template <typename T> bool parseInteger(std::string_view S, T &Out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  T Value{};
  const char *End = S.data() + S.size();
  const auto [Ptr, Ec] = std::from_chars(S.data(), End, Value);
  if (S.empty() || Ec != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}

/// Parses all of \p S as one 64-bit value V (the range V..V) or as a
/// closed range "lo..hi" with lo <= hi: the value spelling that
/// `zamc attack --class` and `zamc leakage --vary` share. \returns nullptr
/// and sets \p Lo and \p Hi, or why \p S is not one (an empty range "..",
/// a malformed one, a bound outside int64_t, or hi < lo) and leaves them
/// unchanged.
inline const char *parseValueOrRange(std::string_view S, int64_t &Lo,
                                     int64_t &Hi) {
  auto Bound = [](std::string_view B, int64_t &Out) -> const char * {
    const auto [Ptr, Ec] = std::from_chars(B.data(), B.data() + B.size(), Out);
    if (Ec == std::errc::result_out_of_range &&
        Ptr == B.data() + B.size())
      return "a bound overflows a 64-bit integer";
    if (B.empty() || Ec != std::errc() || Ptr != B.data() + B.size())
      return "range is not lo..hi with integer bounds";
    return nullptr;
  };
  const size_t Dots = S.find("..");
  if (Dots == std::string_view::npos) {
    if (!parseInteger(S, Lo))
      return "value is not an integer";
    Hi = Lo;
    return nullptr;
  }
  if (S == "..")
    return "empty range: it names no bounds";
  int64_t L = 0, H = 0;
  if (const char *Why = Bound(S.substr(0, Dots), L))
    return Why;
  if (const char *Why = Bound(S.substr(Dots + 2), H))
    return Why;
  if (L > H)
    return "range is reversed: lo..hi needs lo <= hi";
  Lo = L;
  Hi = H;
  return nullptr;
}

} // namespace zam

#endif // ZAM_SUPPORT_PARSEINT_H
