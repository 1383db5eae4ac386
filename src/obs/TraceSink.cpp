//===- TraceSink.cpp ------------------------------------------------------===//

#include "obs/TraceSink.h"

#include "support/StrAppend.h"

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

const std::string &TraceSink::finish() {
  close();
  static const std::string Empty;
  return Owned ? Owned->str() : Empty;
}

namespace {

/// Appends \p S to \p Out as a quoted JSON string. Each run of characters
/// that needs no escaping is appended in one piece.
void appendQuoted(std::string &Out, const std::string &S) {
  Out += '"';
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
      Out.append(Escape, sizeof(Escape));
    }
    }
  }
  Out.append(Run, End);
  Out += '"';
}

void appendArgs(std::string &Out,
                const std::vector<std::pair<std::string, std::string>> &Args) {
  Out += '{';
  bool First = true;
  for (const auto &[Key, Value] : Args) {
    if (!First)
      Out += ',';
    First = false;
    appendQuoted(Out, Key);
    Out += ':';
    if (traceArgIsNumberLiteral(Value))
      Out += Value;
    else
      appendQuoted(Out, Value);
  }
  Out += '}';
}

/// An ASCII digit test the compiler inlines (std::isdigit is a locale-aware
/// libc call, and traceArgIsNumberLiteral runs it on every arg character).
bool isDigit(char C) { return C >= '0' && C <= '9'; }

void appendDouble(std::string &Out, double V) {
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
bool zam::traceArgIsNumberLiteral(const std::string &S) {
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

void JsonlTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  Scratch.clear();
  Scratch += "{\"kind\":\"meta\",\"args\":";
  appendArgs(Scratch, Meta);
  Scratch += "}\n";
  emit(Scratch);
}

void JsonlTraceSink::record(const TraceRecord &R) {
  Scratch.clear();
  Scratch += "{\"kind\":";
  switch (R.RecordKind) {
  case TraceRecord::Kind::Instant:
    Scratch += "\"instant\"";
    break;
  case TraceRecord::Kind::Span:
    Scratch += "\"span\"";
    break;
  case TraceRecord::Kind::Counter:
    Scratch += "\"counter\"";
    break;
  case TraceRecord::Kind::Meta:
    // Mid-stream metadata (metrics snapshots). Distinguished from the
    // nameless header line by the presence of "name".
    Scratch += "\"meta\"";
    break;
  }
  Scratch += ",\"name\":";
  appendQuoted(Scratch, R.Name);
  Scratch += ",\"cat\":";
  appendQuoted(Scratch, R.Category);
  Scratch += ",\"ts\":";
  appendInt(Scratch, R.Ts);
  if (R.RecordKind == TraceRecord::Kind::Span) {
    Scratch += ",\"dur\":";
    appendInt(Scratch, R.Dur);
  }
  if (R.RecordKind == TraceRecord::Kind::Counter) {
    Scratch += ",\"value\":";
    appendDouble(Scratch, R.Value);
  }
  if (!R.Args.empty()) {
    Scratch += ",\"args\":";
    appendArgs(Scratch, R.Args);
  }
  Scratch += "}\n";
  emit(Scratch);
}

unsigned ChromeTraceSink::tidFor(const std::string &Category) {
  for (unsigned I = 0; I != Categories.size(); ++I)
    if (Categories[I] == Category)
      return I + 1;
  Categories.push_back(Category);
  return Categories.size();
}

void ChromeTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  // A trace-event metadata record: ph "M" carries no timeline semantics,
  // so viewers show the provenance without perturbing the rows.
  Scratch.clear();
  Scratch += First ? "[\n" : ",\n";
  First = false;
  Scratch += "{\"name\":\"zam_build\",\"cat\":\"meta\",\"ph\":\"M\",\"pid\":1,"
             "\"tid\":0,\"ts\":0,\"args\":";
  appendArgs(Scratch, Meta);
  Scratch += '}';
  emit(Scratch);
}

void ChromeTraceSink::record(const TraceRecord &R) {
  Scratch.clear();
  Scratch += First ? "[\n" : ",\n";
  First = false;
  Scratch += "{\"name\":";
  appendQuoted(Scratch, R.Name);
  Scratch += ",\"cat\":";
  appendQuoted(Scratch, R.Category);
  switch (R.RecordKind) {
  case TraceRecord::Kind::Instant:
    Scratch += ",\"ph\":\"i\",\"s\":\"t\"";
    break;
  case TraceRecord::Kind::Span:
    Scratch += ",\"ph\":\"X\"";
    break;
  case TraceRecord::Kind::Counter:
    Scratch += ",\"ph\":\"C\"";
    break;
  case TraceRecord::Kind::Meta:
    Scratch += ",\"ph\":\"M\"";
    break;
  }
  Scratch += ",\"pid\":1,\"tid\":";
  // Metadata rows carry no timeline semantics, so they stay off the
  // category rows (tid 0, like the provenance header).
  appendInt(Scratch,
            R.RecordKind == TraceRecord::Kind::Meta ? 0 : tidFor(R.Category));
  Scratch += ",\"ts\":";
  appendInt(Scratch, R.Ts);
  if (R.RecordKind == TraceRecord::Kind::Span) {
    Scratch += ",\"dur\":";
    appendInt(Scratch, R.Dur);
  }
  if (R.RecordKind == TraceRecord::Kind::Counter) {
    Scratch += ",\"args\":{\"value\":";
    appendDouble(Scratch, R.Value);
    Scratch += '}';
  } else if (!R.Args.empty()) {
    Scratch += ",\"args\":";
    appendArgs(Scratch, R.Args);
  }
  Scratch += '}';
  emit(Scratch);
}

void ChromeTraceSink::close() {
  if (Closed)
    return;
  Closed = true;
  Scratch.clear();
  Scratch += First ? "[]\n" : "\n]\n";
  emit(Scratch);
}
