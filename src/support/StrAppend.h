//===- StrAppend.h - Append integers to strings -----------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer formatting for the text encoders (observation keys, trace dumps
/// and trace export): std::to_chars straight into the output string, with
/// no fixed-size line buffer that a long identifier could overflow.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_SUPPORT_STRAPPEND_H
#define ZAM_SUPPORT_STRAPPEND_H

#include <charconv>
#include <string>

namespace zam {

/// Appends the decimal (or, with \p Base 16, lower-case hex) digits of \p V.
template <typename Int>
void appendInt(std::string &Out, Int V, int Base = 10) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V, Base).ptr);
}

} // namespace zam

#endif // ZAM_SUPPORT_STRAPPEND_H
