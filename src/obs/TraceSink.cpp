//===- TraceSink.cpp ------------------------------------------------------===//

#include "obs/TraceSink.h"

#include "obs/Json.h"

#include <algorithm>
#include <cstdio>

using namespace zam;

ByteSink::~ByteSink() = default;

TraceSink::TraceSink()
    : Owned(std::make_unique<StringByteSink>()), Sink(Owned.get()) {}

TraceSink::TraceSink(ByteSink &Sink) : Sink(&Sink) {}

TraceSink::~TraceSink() = default;

void TraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  (void)Meta; // Sinks without a preamble representation drop it.
}

void TraceBuffer::grow(size_t N) {
  const size_t NewCapacity = std::max({2 * Capacity, Size + N, kMinCapacity});
  std::unique_ptr<char[]> Grown(new char[NewCapacity]);
  if (Size != 0)
    std::memcpy(Grown.get(), Data.get(), Size);
  Data = std::move(Grown);
  Capacity = NewCapacity;
}

void TraceSink::flush() {
  if (Out.empty())
    return;
  Sink->write(Out.data(), Out.size());
  Out.clear();
}

const std::string &TraceSink::finish() {
  close();
  static const std::string Empty;
  return Owned ? Owned->str() : Empty;
}

namespace {

/// Appends \p S to \p Out (a std::string or a TraceBuffer) escaped as the
/// body of a JSON string. Each run of characters that needs no escaping is
/// appended in one piece.
template <typename Buffer>
void appendEscaped(Buffer &Out, std::string_view S) {
  const char *Run = S.data();
  const char *End = Run + S.size();
  for (const char *P = Run; P != End; ++P) {
    const unsigned char C = static_cast<unsigned char>(*P);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(Run, P);
    Run = P + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      static constexpr char Hex[] = "0123456789abcdef";
      const char Escape[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xF]};
      Out.append(Escape, Escape + sizeof(Escape));
    }
    }
  }
  Out.append(Run, End);
}

template <typename Buffer>
void appendQuoted(Buffer &Out, std::string_view S) {
  Out += '"';
  appendEscaped(Out, S);
  Out += '"';
}

/// Appends \p S as an arg value: bare when it reads as a number literal.
template <typename Buffer>
void appendValue(Buffer &Out, std::string_view S) {
  if (traceArgIsNumberLiteral(S))
    Out += S;
  else
    appendQuoted(Out, S);
}

/// An ASCII digit test the compiler inlines (std::isdigit is a locale-aware
/// libc call, and traceArgIsNumberLiteral runs it on every arg character).
bool isDigit(char C) { return C >= '0' && C <= '9'; }

void appendDouble(TraceBuffer &Out, double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

} // namespace

/// Args values that read as JSON number literals — an optional sign,
/// digits, then optional fraction and exponent parts — are emitted bare;
/// everything else is quoted. Covers the integers the producers printf and
/// the doubles they format via jsonNumberString ("3.5849625007211563",
/// "1e+20"); "inf"/"nan" fail the test and stay quoted strings.
bool zam::traceArgIsNumberLiteral(std::string_view S) {
  size_t I = !S.empty() && S[0] == '-' ? 1 : 0;
  size_t Digits = 0;
  while (I != S.size() && isDigit(S[I])) {
    ++I;
    ++Digits;
  }
  if (Digits == 0)
    return false;
  if (I != S.size() && S[I] == '.') {
    ++I;
    Digits = 0;
    while (I != S.size() && isDigit(S[I])) {
      ++I;
      ++Digits;
    }
    if (Digits == 0)
      return false;
  }
  if (I != S.size() && (S[I] == 'e' || S[I] == 'E')) {
    ++I;
    if (I != S.size() && (S[I] == '+' || S[I] == '-'))
      ++I;
    Digits = 0;
    while (I != S.size() && isDigit(S[I])) {
      ++I;
      ++Digits;
    }
    if (Digits == 0)
      return false;
  }
  return I == S.size();
}

std::string JsonTraceSink::encodeText(std::string_view Raw) {
  std::string S;
  appendEscaped(S, Raw);
  return S;
}

std::string JsonTraceSink::encodeValue(std::string_view Raw) {
  std::string S;
  appendValue(S, Raw);
  return S;
}

void JsonTraceSink::argDouble(std::string_view Key, double V) {
  argText(Key, jsonNumberString(V));
}

void JsonTraceSink::argText(std::string_view Key, std::string_view Raw) {
  key(Key);
  appendValue(Out, Raw);
}

void JsonTraceSink::recordArgs(const TraceRecord &R) {
  for (const auto &[Key, Value] : R.Args) {
    Out += Args++ ? "," : ",\"args\":{";
    appendQuoted(Out, Key);
    Out += ':';
    appendValue(Out, Value);
  }
}

void JsonTraceSink::appendObject(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  Out += '{';
  for (size_t I = 0; I != Meta.size(); ++I) {
    if (I != 0)
      Out += ',';
    appendQuoted(Out, Meta[I].first);
    Out += ':';
    appendValue(Out, Meta[I].second);
  }
  Out += '}';
}

void JsonTraceSink::encodeNames(const TraceRecord &R) {
  RecordName.clear();
  appendEscaped(RecordName, R.Name);
  RecordCategory.clear();
  appendEscaped(RecordCategory, R.Category);
}

void JsonlTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  Out += "{\"kind\":\"meta\",\"args\":";
  appendObject(Meta);
  Out += "}\n";
}

void JsonlTraceSink::record(const TraceRecord &R) {
  encodeNames(R);
  begin(R.RecordKind, RecordName, {}, RecordCategory, R.Ts, R.Dur);
  if (R.RecordKind == TraceRecord::Kind::Counter)
    counter(R.Value);
  recordArgs(R);
  end();
}

void JsonlTraceSink::counter(double V) {
  Out += ",\"value\":";
  appendDouble(Out, V);
}

void ChromeTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  // A trace-event metadata record: ph "M" carries no timeline semantics,
  // so viewers show the provenance without perturbing the rows.
  Out += First ? "[\n" : ",\n";
  First = false;
  Out += "{\"name\":\"zam_build\",\"cat\":\"meta\",\"ph\":\"M\",\"pid\":1,"
         "\"tid\":0,\"ts\":0,\"args\":";
  appendObject(Meta);
  Out += '}';
}

void ChromeTraceSink::record(const TraceRecord &R) {
  encodeNames(R);
  begin(R.RecordKind, RecordName, {}, RecordCategory, R.Ts, R.Dur);
  if (R.RecordKind == TraceRecord::Kind::Counter)
    counter(R.Value); // A counter event's args are its value alone.
  else
    recordArgs(R);
  end();
}

void ChromeTraceSink::counter(double V) {
  Out += ",\"args\":{\"value\":";
  appendDouble(Out, V);
  Out += '}';
}

void ChromeTraceSink::close() {
  if (!Closed) {
    Closed = true;
    Out += First ? "[]\n" : "\n]\n";
  }
  TraceSink::close();
}
