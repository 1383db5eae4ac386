//===- TraceReader.h - Pull-based trace decoding ----------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read side of the structured-tracing subsystem: pull-based,
/// single-pass decoders that stream TraceRecords out of any of the three
/// on-disk formats (JSONL, Chrome trace-event array, ZTB binary) without
/// loading the file into memory. Consumers (tools/zamtrace,
/// LeakAudit::replay) see one record model (obs/TraceSchema.h):
///
///   - The provenance header surfaces as a leading Kind::Meta record with
///     an empty Name; mid-stream metadata rows (metrics snapshots) are
///     Kind::Meta records with their name set.
///   - Each record is matched to its schema entry (TraceRecord::Type) and
///     its declared args are decoded straight into typed values from the
///     text the format carries — a JSON number or string, a ZTB string —
///     by the one decoder, so every format yields the same record. A
///     double comes back bit-identical to the one the producer held.
///
/// The two text formats share one streaming scanner: both hold one flat
/// JSON object per line, with a flat scalar args object, and differ only
/// in `kind` against `ph` and in where a counter's value sits. A record
/// takes at most kMaxRecordBytes in any format; a record's ts and dur must
/// be integers a uint64_t holds.
///
/// Decode errors set error() and, where the format allows (ZTB frame
/// markers), the reader resynchronizes and keeps yielding records; text
/// readers stop at the first malformed line.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_TRACEREADER_H
#define ZAM_OBS_TRACEREADER_H

#include "obs/TraceSink.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace zam {

/// Abstract pull-based source of trace records.
class TraceReader {
public:
  /// The most bytes one record takes: a ZTB payload or a text line.
  static constexpr uint64_t kMaxRecordBytes = uint64_t(1) << 24;

  virtual ~TraceReader();

  /// Pulls the next record into \p R; false at end of stream.
  virtual bool next(TraceRecord &R) = 0;

  /// Empty while the stream decodes cleanly; else the first error seen.
  const std::string &error() const { return Err; }
  bool ok() const { return Err.empty(); }

protected:
  /// Reads from \p F (binary mode); closes it on destruction when
  /// \p TakeOwnership.
  TraceReader(std::FILE *F, bool TakeOwnership)
      : Buf(1 << 16), F(F), Owns(TakeOwnership) {}

  /// Records the first decode error (later ones are dropped). \returns
  /// false.
  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  /// Makes the \p N bytes from Pos (at most kMaxRecordBytes + 2) readable
  /// in Buf, reading more of the file; false when it ends first.
  bool fill(size_t N) { return End - Pos >= N || refill(N); }

  /// The bytes read: [Pos, End) of Buf are not consumed yet.
  std::vector<char> Buf;
  size_t Pos = 0, End = 0;

private:
  bool refill(size_t N);

  std::FILE *F;
  bool Owns;
  std::string Err;
};

/// Streams a text trace: JSONL, one JSON object per line (blank lines are
/// skipped), or a Chrome trace-event array as ChromeTraceSink writes it,
/// one event object per line between the "[" and "]" lines. (Arbitrary
/// hand-reflowed Chrome JSON is out of scope — re-export or reflow to one
/// event per line.) The first malformed line stops the stream with error()
/// set.
class TextTraceReader : public TraceReader {
public:
  bool next(TraceRecord &R) override;

  /// The scanner's view of one line: its tag ("kind" or "ph") and the raw
  /// text of its ts, dur and top-level value; the name, category and args
  /// go straight into the record.
  struct Line {
    std::string Key, Tag, Skipped;
    bool HasTag = false;
    std::string_view Ts, Dur, Value;
  };
  /// Scans \p Text as one flat JSON object into \p R and \p L. \returns
  /// false when it is not one.
  static bool scan(std::string_view Text, TraceRecord &R, Line &L);

protected:
  TextTraceReader(std::FILE *F, bool TakeOwnership, bool Chrome)
      : TraceReader(F, TakeOwnership), Chrome(Chrome) {}

private:
  bool readLine(std::string_view &Out);
  bool decode(std::string_view Text, TraceRecord &R);

  bool Chrome;
  bool SawOpen = false;
  bool Done = false;
  Line Scan;
};

class JsonlTraceReader final : public TextTraceReader {
public:
  JsonlTraceReader(std::FILE *F, bool TakeOwnership)
      : TextTraceReader(F, TakeOwnership, /*Chrome=*/false) {}
};

class ChromeTraceReader final : public TextTraceReader {
public:
  ChromeTraceReader(std::FILE *F, bool TakeOwnership)
      : TextTraceReader(F, TakeOwnership, /*Chrome=*/true) {}
};

/// Streams the ZTB binary format (obs/Ztb.h). On a framing error the
/// reader scans forward to the next frame marker and resumes, so a
/// corrupted or truncated file still yields every decodable record;
/// error() reports the first problem.
class ZtbTraceReader final : public TraceReader {
public:
  ZtbTraceReader(std::FILE *F, bool TakeOwnership)
      : TraceReader(F, TakeOwnership) {}

  bool next(TraceRecord &R) override;

private:
  bool readPreamble();
  int getByte() {
    return fill(1) ? static_cast<unsigned char>(Buf[Pos++]) : -1;
  }
  int peekByte() { return fill(1) ? static_cast<unsigned char>(Buf[Pos]) : -1; }
  bool readVarint(uint64_t &V);
  /// readVarint inside the preamble, with fail() set to a message that
  /// distinguishes truncation (EOF mid-varint) from corrupt framing.
  bool readHeaderVarint(uint64_t &V);
  /// A length-prefixed preamble string into \p S.
  bool readHeaderString(std::string &S);
  bool resync();

  bool SawPreamble = false;
  bool Dead = false;
  bool HeaderPending = false;
  TraceRecord Header;
};

/// The format of the trace on \p F, from its first bytes (F is rewound): the
/// ZTB magic, a leading '[' (Chrome), or a first line that is a JSON object
/// with a "kind" or "ph" member (JSONL); std::nullopt for anything else,
/// such as a stats document.
std::optional<TraceFormat> sniffTraceFormat(std::FILE *F);

/// Opens \p Path and sniffs the format (JSONL for anything that is none of
/// the three). Returns nullptr with \p Err set when the file cannot be
/// opened.
std::unique_ptr<TraceReader> openTraceReader(const std::string &Path,
                                             std::string &Err);

} // namespace zam

#endif // ZAM_OBS_TRACEREADER_H
