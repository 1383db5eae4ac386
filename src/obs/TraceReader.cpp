//===- TraceReader.cpp ----------------------------------------------------===//

#include "obs/TraceReader.h"

#include "obs/Json.h"
#include "obs/Ztb.h"
#include "support/ParseInt.h"

#include <algorithm>
#include <charconv>
#include <cstring>

using namespace zam;

TraceReader::~TraceReader() {
  if (Owns && F)
    std::fclose(F);
}

bool TraceReader::refill(size_t N) {
  std::memmove(Buf.data(), Buf.data() + Pos, End - Pos);
  End -= Pos;
  Pos = 0;
  if (N > Buf.size()) {
    // reserve() first: resize() alone may allocate twice the size.
    const size_t Size =
        std::max(N, std::min<size_t>(2 * Buf.size(), kMaxRecordBytes + 2));
    Buf.reserve(Size);
    Buf.resize(Size);
  }
  while (End < N) {
    const size_t Got = std::fread(Buf.data() + End, 1, Buf.size() - End, F);
    if (Got == 0) {
      if (std::ferror(F))
        fail("read error");
      return false;
    }
    End += Got;
  }
  return true;
}

namespace {

/// \p R's next arg, an empty Text one, in the storage an earlier record
/// left there.
TraceArg &nextArg(TraceRecord &R, size_t &N) {
  if (N == R.Args.size())
    R.Args.emplace_back();
  TraceArg &A = R.Args[N++];
  A.Type = TraceArgType::Text;
  A.Bits = 0;
  A.List.clear();
  return A;
}

/// \p Text cut to 80 bytes for a diagnostic.
std::string excerpt(std::string_view Text) {
  return Text.size() > 80 ? std::string(Text.substr(0, 80)) + "..."
                          : std::string(Text);
}

/// Reads the JSON scalar at \p P into \p Out: a string's text, or the
/// characters of a literal or a number, which the typed decode reads in
/// full. \returns its end, or nullptr.
const char *scanScalar(const char *P, const char *E, std::string &Out) {
  if (P != E && *P == '"')
    return scanJsonString(P, E, Out);
  const char *End = scanJsonBare(P, E);
  const std::string_view T(P, End ? End - P : 0);
  if (!End || (T != "true" && T != "false" && T != "null" &&
               T.find_first_not_of("+-.0123456789eE") != T.npos))
    return nullptr;
  Out.assign(T);
  return End;
}

/// Parses the field \p Text as a \p T.
template <typename T> bool parseField(std::string_view Text, T &Out) {
  if constexpr (std::is_same_v<T, double>) {
    const auto [Ptr, Ec] =
        std::from_chars(Text.data(), Text.data() + Text.size(), Out);
    return !Text.empty() && Ec == std::errc() &&
           Ptr == Text.data() + Text.size();
  } else {
    return parseInteger(Text, Out);
  }
}

} // namespace

bool TextTraceReader::scan(std::string_view Text, TraceRecord &R, Line &L) {
  const char *E = Text.data() + Text.size();
  L.HasTag = false;
  L.Ts = L.Dur = L.Value = {};
  R.Name.clear();
  R.Category.clear();
  size_t N = 0;
  auto Arg = [&](std::string_view Key, const char *P) {
    TraceArg &A = nextArg(R, N);
    A.Key.assign(Key);
    return scanScalar(P, E, A.Text);
  };
  auto Member = [&](std::string_view Key, const char *P) -> const char * {
    if (Key == "args")
      return scanJsonObject(P, E, L.Key, Arg);
    if (Key == "name")
      return scanJsonString(P, E, R.Name);
    if (Key == "cat")
      return scanJsonString(P, E, R.Category);
    if (Key == "kind" || Key == "ph") {
      L.HasTag = true;
      return scanJsonString(P, E, L.Tag);
    }
    const char *End = scanScalar(P, E, L.Skipped);
    const std::string_view Raw(P, End ? End - P : 0);
    if (Key == "ts")
      L.Ts = Raw;
    else if (Key == "dur")
      L.Dur = Raw;
    else if (Key == "value")
      L.Value = Raw;
    return End;
  };
  const char *P =
      scanJsonObject(skipJsonSpace(Text.data(), E), E, L.Key, Member);
  R.Args.resize(N);
  return P && skipJsonSpace(P, E) == E;
}

bool TextTraceReader::decode(std::string_view Text, TraceRecord &R) {
  if (!scan(Text, R, Scan) || !Scan.HasTag)
    return false;
  using Kind = TraceRecord::Kind;
  static constexpr std::string_view JsonlKinds[] = {"instant", "span",
                                                    "counter", "meta"};
  static constexpr std::string_view ChromePhases[] = {"i", "X", "C", "M"};
  const std::string_view *Tags = Chrome ? ChromePhases : JsonlKinds;
  const auto *Tag = std::find(Tags, Tags + 4, Scan.Tag);
  if (Tag == Tags + 4)
    return false;
  R.RecordKind = static_cast<Kind>(Tag - Tags);
  // A counter's value is a top-level field in JSONL and its only arg in
  // Chrome.
  std::string ChromeValue;
  if (Chrome && R.RecordKind == Kind::Counter) {
    if (const TraceArg *V = R.arg("value"))
      ChromeValue = V->Text;
    Scan.Value = ChromeValue;
    R.Args.clear();
  }
  // The provenance header is the conventional "zam_build" metadata event
  // in Chrome; readers surface it as the nameless header record.
  if (Chrome && R.RecordKind == Kind::Meta && R.Name == "zam_build") {
    R.Name.clear();
    R.Category.clear();
    Scan.Ts = {};
  }
  R.Ts = R.Dur = 0;
  R.Value = 0;
  auto Field = [&](const char *Key, std::string_view Raw, auto &Out) {
    if (Raw.empty() || parseField(Raw, Out))
      return true;
    return fail("record '" + R.Name + "' (cat '" + R.Category +
                "'): field '" + Key + "' is '" + excerpt(Raw) + "', not " +
                (std::is_same_v<std::remove_reference_t<decltype(Out)>, double>
                     ? "a number"
                     : "an integer in range"));
  };
  if (!Field("ts", Scan.Ts, R.Ts) ||
      (R.RecordKind == Kind::Span && !Field("dur", Scan.Dur, R.Dur)) ||
      (R.RecordKind == Kind::Counter && !Field("value", Scan.Value, R.Value)))
    return false;
  applyTraceSchema(R);
  return true;
}

bool TextTraceReader::readLine(std::string_view &Out) {
  for (size_t Scanned = 0;;) {
    if (const auto *Nl = static_cast<const char *>(std::memchr(
            Buf.data() + Pos + Scanned, '\n', End - Pos - Scanned))) {
      Out = {Buf.data() + Pos, static_cast<size_t>(Nl - Buf.data()) - Pos};
      Pos = Nl - Buf.data() + 1;
      return true;
    }
    Scanned = End - Pos;
    if (Scanned > kMaxRecordBytes)
      return fail("a line of more than " + std::to_string(kMaxRecordBytes) +
                  " bytes: no record is that long");
    if (!fill(Scanned + 1)) {
      Out = {Buf.data() + Pos, End - Pos};
      Pos = End;
      return !Out.empty();
    }
  }
}

bool TextTraceReader::next(TraceRecord &R) {
  if (Done || !ok())
    return false;
  std::string_view Text;
  if (Chrome && !SawOpen) {
    if (!readLine(Text))
      return fail("empty Chrome trace");
    Done = Text == "[]";
    if (!Done && Text != "[")
      return fail("expected '[' opening the Chrome trace array");
    SawOpen = true;
  }
  while (!Done && readLine(Text)) {
    if (Chrome && Text == "]") {
      Done = true;
      break;
    }
    if (Chrome && Text.ends_with(','))
      Text.remove_suffix(1);
    if (Text.empty())
      continue;
    if (decode(Text, R))
      return true;
    return fail((Chrome ? "malformed Chrome trace event: "
                        : "malformed JSONL record: ") +
                excerpt(Text));
  }
  return Chrome && !Done ? fail("unterminated Chrome trace array") : false;
}

//===----------------------------------------------------------------------===//
// ZTB binary
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t kMaxHeaderPairs = 4096;
constexpr uint64_t kMaxHeaderStringBytes = uint64_t(1) << 16;
constexpr uint64_t kMaxArgs = 4096;

bool pVarint(const char *&P, const char *E, uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    if (P == E)
      return false;
    const unsigned char B = static_cast<unsigned char>(*P++);
    V |= uint64_t(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return true;
  }
  return false;
}

bool pString(const char *&P, const char *E, std::string &S) {
  uint64_t Len = 0;
  if (!pVarint(P, E, Len) || Len > static_cast<uint64_t>(E - P))
    return false;
  S.assign(P, static_cast<size_t>(Len));
  P += Len;
  return true;
}

/// Decodes the record payload [\p P, \p E); false on any malformed field.
bool decodeZtbPayload(const char *P, const char *E, TraceRecord &R) {
  if (P == E)
    return false;
  const unsigned Kind = static_cast<unsigned char>(*P++) - ztb::KindInstant;
  if (Kind > ztb::KindMeta - ztb::KindInstant)
    return false;
  R.RecordKind = static_cast<TraceRecord::Kind>(Kind);
  R.Dur = 0;
  R.Value = 0;
  if (!pString(P, E, R.Name) || !pString(P, E, R.Category) ||
      !pVarint(P, E, R.Ts))
    return false;
  if (R.RecordKind == TraceRecord::Kind::Span && !pVarint(P, E, R.Dur))
    return false;
  if (R.RecordKind == TraceRecord::Kind::Counter) {
    if (E - P < 8)
      return false;
    uint64_t Bits = 0;
    for (int I = 0; I != 8; ++I)
      Bits |= uint64_t(static_cast<unsigned char>(P[I])) << (8 * I);
    P += 8;
    std::memcpy(&R.Value, &Bits, sizeof(R.Value));
  }
  uint64_t ArgCount = 0;
  if (!pVarint(P, E, ArgCount) || ArgCount > kMaxArgs)
    return false;
  size_t N = 0;
  for (uint64_t I = 0; I != ArgCount; ++I) {
    TraceArg &A = nextArg(R, N);
    if (!pString(P, E, A.Key) || !pString(P, E, A.Text))
      return false;
  }
  R.Args.resize(N);
  if (P != E)
    return false;
  applyTraceSchema(R);
  return true;
}

} // namespace

bool ZtbTraceReader::readVarint(uint64_t &V) {
  fill(ztb::kMaxVarintBytes); // Fewer at the end of the stream.
  const char *P = Buf.data() + Pos;
  const bool Ok = pVarint(P, Buf.data() + End, V);
  Pos = P - Buf.data();
  return Ok;
}

bool ZtbTraceReader::readHeaderVarint(uint64_t &V) {
  if (readVarint(V))
    return true;
  // readVarint fails either at EOF mid-varint (a truncated stream) or on
  // a 10-byte runaway (corrupt framing); tell the two apart so truncation
  // never masquerades as corruption.
  return fail(peekByte() < 0 ? "truncated ZTB header (unterminated varint)"
                             : "malformed ZTB header varint");
}

bool ZtbTraceReader::readHeaderString(std::string &S) {
  uint64_t Len = 0;
  if (!readHeaderVarint(Len))
    return false;
  // Cap strings well below the record limit so a corrupt length can't
  // preallocate megabytes before the EOF check fires.
  if (Len > kMaxHeaderStringBytes)
    return fail("malformed ZTB header (implausible string length)");
  if (!fill(Len))
    return fail("truncated ZTB header");
  S.assign(Buf.data() + Pos, Len);
  Pos += Len;
  return true;
}

bool ZtbTraceReader::readPreamble() {
  SawPreamble = true;
  if (!fill(sizeof(ztb::Magic)))
    return fail("truncated ZTB preamble");
  if (std::memcmp(Buf.data() + Pos, ztb::Magic, sizeof(ztb::Magic)) != 0)
    return fail("not a ZTB stream (bad magic)");
  Pos += sizeof(ztb::Magic);
  const int Ver = getByte();
  if (Ver < 0) // EOF right after the magic: no version mismatch.
    return fail("truncated ZTB preamble (missing version byte)");
  if (Ver > ztb::Version)
    return fail("unsupported ZTB version " + std::to_string(Ver));
  uint64_t Pairs = 0;
  if (!readHeaderVarint(Pairs))
    return false;
  if (Pairs > kMaxHeaderPairs)
    return fail("malformed ZTB header (implausible pair count)");
  Header.RecordKind = TraceRecord::Kind::Meta;
  size_t N = 0;
  for (uint64_t I = 0; I != Pairs; ++I) {
    TraceArg &A = nextArg(Header, N);
    if (!readHeaderString(A.Key) || !readHeaderString(A.Text))
      return false;
  }
  applyTraceSchema(Header);
  HeaderPending = N != 0;
  return true;
}

bool ZtbTraceReader::resync() {
  size_t Matched = 0;
  for (;;) {
    const int C = getByte();
    if (C < 0)
      return false;
    if (static_cast<unsigned char>(C) == ztb::FrameMarker[Matched]) {
      if (++Matched == sizeof(ztb::FrameMarker))
        return true;
    } else {
      Matched =
          static_cast<unsigned char>(C) == ztb::FrameMarker[0] ? 1 : 0;
    }
  }
}

bool ZtbTraceReader::next(TraceRecord &R) {
  if (!SawPreamble) {
    if (!readPreamble()) {
      Dead = true;
      return false;
    }
  }
  if (Dead)
    return false;
  if (HeaderPending) {
    HeaderPending = false;
    R = Header;
    return true;
  }
  for (;;) {
    const int Lead = peekByte();
    if (Lead < 0)
      return false; // Clean EOF at a record boundary.
    if (Lead == 0x00) {
      // A frame marker; verify all 8 bytes.
      bool Good = true;
      for (size_t I = 0; I != sizeof(ztb::FrameMarker); ++I) {
        const int C = getByte();
        if (C < 0)
          return fail("truncated frame marker");
        if (static_cast<unsigned char>(C) != ztb::FrameMarker[I]) {
          Good = false;
          break;
        }
      }
      if (!Good) {
        fail("bad frame marker; resynchronizing");
        if (!resync())
          return false;
      }
      continue;
    }
    uint64_t Len = 0;
    if (!readVarint(Len))
      return fail("truncated record length");
    if (Len == 0 || Len > kMaxRecordBytes) {
      fail("implausible record length; resynchronizing");
      if (!resync())
        return false;
      continue;
    }
    if (!fill(Len))
      return fail("truncated record");
    Pos += Len;
    if (decodeZtbPayload(Buf.data() + Pos - Len, Buf.data() + Pos, R))
      return true;
    fail("malformed record payload; resynchronizing");
    if (!resync())
      return false;
  }
}

//===----------------------------------------------------------------------===//
// Format sniffing
//===----------------------------------------------------------------------===//

std::optional<TraceFormat> zam::sniffTraceFormat(std::FILE *F) {
  std::string Head(1 << 16, '\0');
  Head.resize(std::fread(Head.data(), 1, Head.size(), F));
  std::rewind(F);
  if (std::string_view(Head).starts_with(
          std::string_view(ztb::Magic, sizeof(ztb::Magic))))
    return TraceFormat::Ztb;
  const size_t First = Head.find_first_not_of(" \t\r\n");
  if (First == std::string::npos)
    return std::nullopt;
  if (Head[First] == '[')
    return TraceFormat::Chrome;
  const size_t Newline = Head.find('\n', First);
  // A first line longer than the window is no stats document's "{".
  if (Newline == std::string::npos && Head.size() == (1 << 16))
    return TraceFormat::Jsonl;
  TraceRecord R;
  TextTraceReader::Line L;
  if (TextTraceReader::scan(
          std::string_view(Head).substr(First, Newline - First), R, L) &&
      L.HasTag)
    return TraceFormat::Jsonl;
  return std::nullopt;
}

std::unique_ptr<TraceReader> zam::openTraceReader(const std::string &Path,
                                                  std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open '" + Path + "'";
    return nullptr;
  }
  switch (sniffTraceFormat(F).value_or(TraceFormat::Jsonl)) {
  case TraceFormat::Ztb:
    return std::make_unique<ZtbTraceReader>(F, /*TakeOwnership=*/true);
  case TraceFormat::Chrome:
    return std::make_unique<ChromeTraceReader>(F, /*TakeOwnership=*/true);
  case TraceFormat::Jsonl:
    break;
  }
  return std::make_unique<JsonlTraceReader>(F, /*TakeOwnership=*/true);
}
