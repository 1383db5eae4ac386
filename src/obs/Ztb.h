//===- Ztb.h - Compact binary trace format ----------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ZTB ("zam trace, binary") — the length-prefixed binary trace format for
/// million-window runs, where the JSONL text encoding is too large to
/// buffer or re-parse. Wire layout (documented in docs/OBSERVABILITY.md):
///
///   preamble:  magic "ZTB1" · version byte (currently 1) ·
///              varint pair-count · pairs of length-prefixed key/value
///              strings (the BuildInfo provenance header)
///   record:    varint payload-length · payload
///   payload:   kind byte (1 instant, 2 span, 3 counter, 4 meta) ·
///              string name · string cat · varint ts ·
///              [span: varint dur] [counter: 8-byte LE IEEE-754 value] ·
///              varint arg-count · pairs of strings
///   marker:    an 8-byte frame marker before every 4096th record; its
///              lead byte 0x00 can never start a record (payloads are
///              nonempty, so the length prefix is nonzero), which makes
///              the stream self-synchronizing: a reader that loses
///              framing scans forward to the next marker and resumes.
///
/// Varints are unsigned LEB128; strings are varint length + raw bytes.
/// Everything is deterministic — same records in, same bytes out — so ZTB
/// files participate in the byte-stability audits like the text formats.
/// The encoder is ZtbTraceSink (obs/TraceSink.h).
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_ZTB_H
#define ZAM_OBS_ZTB_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace zam {
namespace ztb {

/// The 4-byte file magic ("ZTB1").
inline constexpr char Magic[4] = {'Z', 'T', 'B', '1'};

/// Current wire version; readers reject anything newer.
inline constexpr uint8_t Version = 1;

/// A frame marker precedes every RecordsPerFrame-th record.
inline constexpr size_t RecordsPerFrame = 4096;

/// The 8-byte self-synchronization marker. Lead byte 0x00 is unambiguous
/// at a record boundary (a record's length prefix is never zero).
inline constexpr unsigned char FrameMarker[8] = {0x00, 0xA5, 'Z', 'T',
                                                 'B',  'M',  0x5A, 0xFF};

/// Record kind bytes on the wire.
enum KindByte : uint8_t {
  KindInstant = 1,
  KindSpan = 2,
  KindCounter = 3,
  KindMeta = 4,
};

/// The most bytes a varint of a uint64_t takes.
inline constexpr size_t kMaxVarintBytes = 10;

/// Writes \p V as an unsigned LEB128 varint at \p P and \returns its end.
inline char *writeVarint(char *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<char>((V & 0x7F) | 0x80);
    V >>= 7;
  }
  *P++ = static_cast<char>(V);
  return P;
}

/// Writes \p V as its 8 little-endian IEEE-754 bytes and \returns their
/// end.
inline char *writeDouble(char *P, double V) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  for (int I = 0; I != 8; ++I)
    *P++ = static_cast<char>((Bits >> (8 * I)) & 0xFF);
  return P;
}

} // namespace ztb

} // namespace zam

#endif // ZAM_OBS_ZTB_H
