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

} // namespace zam

#endif // ZAM_SUPPORT_PARSEINT_H
