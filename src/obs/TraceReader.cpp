//===- TraceReader.cpp ----------------------------------------------------===//

#include "obs/TraceReader.h"

#include "obs/Json.h"
#include "obs/Ztb.h"

#include <cmath>
#include <cstring>

using namespace zam;

TraceReader::~TraceReader() = default;

namespace {

/// Reads one '\n'-terminated line (terminator stripped); false at EOF.
bool readLine(std::FILE *F, std::string &Out) {
  Out.clear();
  char Buf[4096];
  bool Any = false;
  while (std::fgets(Buf, sizeof(Buf), F)) {
    Any = true;
    Out += Buf;
    if (!Out.empty() && Out.back() == '\n') {
      Out.pop_back();
      return true;
    }
  }
  return Any;
}

/// Flattens a JSON args object back to the producer's key/value strings:
/// integers in the producers' decimal form (std::to_string — "1024", never
/// the "%g" scientific "1.024e+03", so strtoull consumers round-trip, and
/// every int64 exactly), other numbers through jsonNumberString
/// (bit-identical strtod round-trip), strings verbatim, bools as their
/// literals.
void argsFromJson(const JsonValue *Args,
                  std::vector<std::pair<std::string, std::string>> &Out) {
  Out.clear();
  if (!Args || Args->kind() != JsonValue::Kind::Object)
    return;
  for (const auto &[Key, Val] : Args->members()) {
    switch (Val.kind()) {
    case JsonValue::Kind::Number: {
      const double V = Val.asNumber();
      if (Val.isInt())
        Out.emplace_back(Key, std::to_string(Val.asInt()));
      else if (std::nearbyint(V) == V && std::fabs(V) < 9.2e18)
        Out.emplace_back(Key,
                         std::to_string(static_cast<long long>(V)));
      else
        Out.emplace_back(Key, jsonNumberString(V));
      break;
    }
    case JsonValue::Kind::String:
      Out.emplace_back(Key, Val.asString());
      break;
    case JsonValue::Kind::Bool:
      Out.emplace_back(Key, Val.asBool() ? "true" : "false");
      break;
    default:
      break; // Producers never emit nested args.
    }
  }
}

uint64_t numOr0(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  if (!V || V->kind() != JsonValue::Kind::Number)
    return 0;
  return V->isInt() ? static_cast<uint64_t>(V->asInt())
                    : static_cast<uint64_t>(V->asNumber());
}

std::string strOrEmpty(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->kind() == JsonValue::Kind::String ? V->asString()
                                                   : std::string();
}

/// Decodes one JSONL record object; false when the shape is wrong.
bool decodeJsonlObject(const JsonValue &Obj, TraceRecord &R) {
  const std::string Kind = strOrEmpty(Obj, "kind");
  R = TraceRecord();
  if (Kind == "meta") {
    R.RecordKind = TraceRecord::Kind::Meta;
    // The nameless header line carries only args; snapshot rows are full
    // records.
    R.Name = strOrEmpty(Obj, "name");
    R.Category = strOrEmpty(Obj, "cat");
    R.Ts = numOr0(Obj, "ts");
    argsFromJson(Obj.find("args"), R.Args);
    return true;
  }
  if (Kind == "instant")
    R.RecordKind = TraceRecord::Kind::Instant;
  else if (Kind == "span")
    R.RecordKind = TraceRecord::Kind::Span;
  else if (Kind == "counter")
    R.RecordKind = TraceRecord::Kind::Counter;
  else
    return false;
  R.Name = strOrEmpty(Obj, "name");
  R.Category = strOrEmpty(Obj, "cat");
  R.Ts = numOr0(Obj, "ts");
  if (R.RecordKind == TraceRecord::Kind::Span)
    R.Dur = numOr0(Obj, "dur");
  if (R.RecordKind == TraceRecord::Kind::Counter) {
    const JsonValue *V = Obj.find("value");
    R.Value = V && V->kind() == JsonValue::Kind::Number ? V->asNumber() : 0;
  }
  argsFromJson(Obj.find("args"), R.Args);
  return true;
}

/// Decodes one Chrome trace-event object; false when the shape is wrong.
bool decodeChromeObject(const JsonValue &Obj, TraceRecord &R) {
  const std::string Ph = strOrEmpty(Obj, "ph");
  R = TraceRecord();
  R.Name = strOrEmpty(Obj, "name");
  R.Category = strOrEmpty(Obj, "cat");
  R.Ts = numOr0(Obj, "ts");
  if (Ph == "M") {
    R.RecordKind = TraceRecord::Kind::Meta;
    // The provenance header is the conventional "zam_build" metadata
    // event; readers surface it as the nameless header record.
    if (R.Name == "zam_build") {
      R.Name.clear();
      R.Category.clear();
      R.Ts = 0;
    }
    argsFromJson(Obj.find("args"), R.Args);
    return true;
  }
  if (Ph == "X") {
    R.RecordKind = TraceRecord::Kind::Span;
    R.Dur = numOr0(Obj, "dur");
    argsFromJson(Obj.find("args"), R.Args);
    return true;
  }
  if (Ph == "C") {
    R.RecordKind = TraceRecord::Kind::Counter;
    const JsonValue *Args = Obj.find("args");
    const JsonValue *V = Args ? Args->find("value") : nullptr;
    R.Value = V && V->kind() == JsonValue::Kind::Number ? V->asNumber() : 0;
    return true;
  }
  if (Ph == "i") {
    R.RecordKind = TraceRecord::Kind::Instant;
    argsFromJson(Obj.find("args"), R.Args);
    return true;
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// JSONL
//===----------------------------------------------------------------------===//

JsonlTraceReader::JsonlTraceReader(std::FILE *F, bool TakeOwnership)
    : F(F), Owns(TakeOwnership) {}

JsonlTraceReader::~JsonlTraceReader() {
  if (Owns && F)
    std::fclose(F);
}

bool JsonlTraceReader::next(TraceRecord &R) {
  if (!ok())
    return false;
  while (readLine(F, Line)) {
    if (Line.empty())
      continue;
    std::optional<JsonValue> Obj = JsonValue::parse(Line);
    if (!Obj || Obj->kind() != JsonValue::Kind::Object ||
        !decodeJsonlObject(*Obj, R)) {
      fail("malformed JSONL record: " +
           (Line.size() > 80 ? Line.substr(0, 80) + "..." : Line));
      return false;
    }
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Chrome trace-event array
//===----------------------------------------------------------------------===//

ChromeTraceReader::ChromeTraceReader(std::FILE *F, bool TakeOwnership)
    : F(F), Owns(TakeOwnership) {}

ChromeTraceReader::~ChromeTraceReader() {
  if (Owns && F)
    std::fclose(F);
}

bool ChromeTraceReader::next(TraceRecord &R) {
  if (Done || !ok())
    return false;
  if (!SawOpen) {
    if (!readLine(F, Line)) {
      fail("empty Chrome trace");
      return false;
    }
    if (Line == "[]") {
      Done = true;
      return false;
    }
    if (Line != "[") {
      fail("expected '[' opening the Chrome trace array");
      return false;
    }
    SawOpen = true;
  }
  while (readLine(F, Line)) {
    if (Line == "]") {
      Done = true;
      return false;
    }
    std::string Text = Line;
    if (!Text.empty() && Text.back() == ',')
      Text.pop_back();
    if (Text.empty())
      continue;
    std::optional<JsonValue> Obj = JsonValue::parse(Text);
    if (!Obj || Obj->kind() != JsonValue::Kind::Object ||
        !decodeChromeObject(*Obj, R)) {
      fail("malformed Chrome trace event: " +
           (Text.size() > 80 ? Text.substr(0, 80) + "..." : Text));
      return false;
    }
    return true;
  }
  fail("unterminated Chrome trace array");
  return false;
}

//===----------------------------------------------------------------------===//
// ZTB binary
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t kMaxRecordBytes = uint64_t(1) << 24;
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

/// Decodes one record payload; false on any malformed field.
bool decodeZtbPayload(const std::string &Payload, TraceRecord &R) {
  const char *P = Payload.data();
  const char *E = P + Payload.size();
  if (P == E)
    return false;
  R = TraceRecord();
  switch (static_cast<unsigned char>(*P++)) {
  case ztb::KindInstant:
    R.RecordKind = TraceRecord::Kind::Instant;
    break;
  case ztb::KindSpan:
    R.RecordKind = TraceRecord::Kind::Span;
    break;
  case ztb::KindCounter:
    R.RecordKind = TraceRecord::Kind::Counter;
    break;
  case ztb::KindMeta:
    R.RecordKind = TraceRecord::Kind::Meta;
    break;
  default:
    return false;
  }
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
  R.Args.reserve(static_cast<size_t>(ArgCount));
  for (uint64_t I = 0; I != ArgCount; ++I) {
    std::string Key, Value;
    if (!pString(P, E, Key) || !pString(P, E, Value))
      return false;
    R.Args.emplace_back(std::move(Key), std::move(Value));
  }
  return P == E;
}

} // namespace

ZtbTraceReader::ZtbTraceReader(std::FILE *F, bool TakeOwnership)
    : F(F), Owns(TakeOwnership), Buf(1 << 16) {}

ZtbTraceReader::~ZtbTraceReader() {
  if (Owns && F)
    std::fclose(F);
}

bool ZtbTraceReader::refill() {
  Pos = 0;
  End = std::fread(Buf.data(), 1, Buf.size(), F);
  return End != 0;
}

int ZtbTraceReader::getByte() {
  if (Pos == End && !refill())
    return -1;
  return static_cast<unsigned char>(Buf[Pos++]);
}

int ZtbTraceReader::peekByte() {
  if (Pos == End && !refill())
    return -1;
  return static_cast<unsigned char>(Buf[Pos]);
}

bool ZtbTraceReader::readVarint(uint64_t &V) {
  V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    const int B = getByte();
    if (B < 0)
      return false;
    V |= uint64_t(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return true;
  }
  return false;
}

bool ZtbTraceReader::readHeaderVarint(uint64_t &V) {
  if (readVarint(V))
    return true;
  // readVarint fails either at EOF mid-varint (a truncated stream) or on
  // a 10-byte runaway (corrupt framing); tell the two apart so truncation
  // never masquerades as corruption.
  fail(peekByte() < 0 ? "truncated ZTB header (unterminated varint)"
                      : "malformed ZTB header varint");
  return false;
}

bool ZtbTraceReader::readPreamble() {
  SawPreamble = true;
  char Magic[4];
  for (char &C : Magic) {
    const int B = getByte();
    if (B < 0) {
      fail("truncated ZTB preamble");
      return false;
    }
    C = static_cast<char>(B);
  }
  if (std::memcmp(Magic, ztb::Magic, sizeof(Magic)) != 0) {
    fail("not a ZTB stream (bad magic)");
    return false;
  }
  const int Ver = getByte();
  if (Ver < 0) {
    // EOF right after the magic: a truncation, not a version mismatch.
    fail("truncated ZTB preamble (missing version byte)");
    return false;
  }
  if (Ver > ztb::Version) {
    fail("unsupported ZTB version " + std::to_string(Ver));
    return false;
  }
  uint64_t Pairs = 0;
  if (!readHeaderVarint(Pairs))
    return false;
  if (Pairs > kMaxHeaderPairs) {
    fail("malformed ZTB header (implausible pair count)");
    return false;
  }
  Header = TraceRecord();
  Header.RecordKind = TraceRecord::Kind::Meta;
  for (uint64_t I = 0; I != Pairs; ++I) {
    uint64_t KeyLen = 0, ValLen = 0;
    std::string Key, Value;
    if (!readHeaderVarint(KeyLen))
      return false;
    // Cap strings well below the record limit so a corrupt length can't
    // preallocate megabytes before the EOF check fires.
    if (KeyLen > kMaxHeaderStringBytes) {
      fail("malformed ZTB header (implausible string length)");
      return false;
    }
    Key.resize(static_cast<size_t>(KeyLen));
    for (char &C : Key) {
      const int B = getByte();
      if (B < 0) {
        fail("truncated ZTB header");
        return false;
      }
      C = static_cast<char>(B);
    }
    if (!readHeaderVarint(ValLen))
      return false;
    if (ValLen > kMaxHeaderStringBytes) {
      fail("malformed ZTB header (implausible string length)");
      return false;
    }
    Value.resize(static_cast<size_t>(ValLen));
    for (char &C : Value) {
      const int B = getByte();
      if (B < 0) {
        fail("truncated ZTB header");
        return false;
      }
      C = static_cast<char>(B);
    }
    Header.Args.emplace_back(std::move(Key), std::move(Value));
  }
  HeaderPending = !Header.Args.empty();
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
        if (C < 0) {
          fail("truncated frame marker");
          return false;
        }
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
    if (!readVarint(Len)) {
      fail("truncated record length");
      return false;
    }
    if (Len == 0 || Len > kMaxRecordBytes) {
      fail("implausible record length; resynchronizing");
      if (!resync())
        return false;
      continue;
    }
    Payload.resize(static_cast<size_t>(Len));
    size_t Got = 0;
    while (Got != Len) {
      if (Pos == End && !refill()) {
        fail("truncated record");
        return false;
      }
      const size_t N =
          std::min(static_cast<size_t>(Len) - Got, End - Pos);
      std::memcpy(&Payload[Got], Buf.data() + Pos, N);
      Pos += N;
      Got += N;
    }
    if (decodeZtbPayload(Payload, R))
      return true;
    fail("malformed record payload; resynchronizing");
    if (!resync())
      return false;
  }
}

//===----------------------------------------------------------------------===//
// Format sniffing
//===----------------------------------------------------------------------===//

std::unique_ptr<TraceReader> zam::openTraceReader(const std::string &Path,
                                                  std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open '" + Path + "'";
    return nullptr;
  }
  char Magic[4] = {0, 0, 0, 0};
  const size_t N = std::fread(Magic, 1, sizeof(Magic), F);
  std::rewind(F);
  if (N == sizeof(Magic) &&
      std::memcmp(Magic, ztb::Magic, sizeof(Magic)) == 0)
    return std::make_unique<ZtbTraceReader>(F, /*TakeOwnership=*/true);
  // Text: the first non-whitespace byte decides array vs. lines.
  int C;
  while ((C = std::fgetc(F)) != EOF &&
         (C == ' ' || C == '\t' || C == '\r' || C == '\n'))
    ;
  std::rewind(F);
  if (C == '[')
    return std::make_unique<ChromeTraceReader>(F, /*TakeOwnership=*/true);
  return std::make_unique<JsonlTraceReader>(F, /*TakeOwnership=*/true);
}
