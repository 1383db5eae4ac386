//===- TraceSink.cpp ------------------------------------------------------===//

#include "obs/TraceSink.h"

#include "obs/Json.h"

#include <algorithm>

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

TraceBuffer::Room TraceBuffer::grow(char *At, size_t N) {
  const size_t Used = At - Data.get();
  const size_t NewCapacity = std::max({2 * Capacity, Used + N, kMinCapacity});
  std::unique_ptr<char[]> Grown(new char[NewCapacity]);
  if (Used != 0)
    std::memcpy(Grown.get(), Data.get(), Used);
  Data = std::move(Grown);
  Capacity = NewCapacity;
  return {Data.get(), Data.get() + Used, Data.get() + Capacity};
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

/// An ASCII digit test the compiler inlines (std::isdigit is a locale-aware
/// libc call, and traceArgIsNumberLiteral runs it on every arg character).
bool isDigit(char C) { return C >= '0' && C <= '9'; }

} // namespace

char *trace_detail::writeJsonValue(char *P, std::string_view S) {
  if (traceArgIsNumberLiteral(S))
    return copy(P, S);
  *P++ = '"';
  P = writeJsonEscaped(P, S);
  *P++ = '"';
  return P;
}

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
  std::string S(6 * Raw.size(), '\0');
  S.resize(writeJsonEscaped(S.data(), Raw) - S.data());
  return S;
}

std::string JsonTraceSink::encodeValue(std::string_view Raw) {
  std::string S(6 * Raw.size() + 2, '\0');
  S.resize(trace_detail::writeJsonValue(S.data(), Raw) - S.data());
  return S;
}

void TraceSink::record(const TraceRecord &R) {
  withEncoder(*this, [&R](auto &Enc) {
    const TraceHead Head =
        Enc.head(R.RecordKind, Enc.encodeText(R.Name),
                 Enc.category(Enc.encodeText(R.Category)));
    auto W = Enc.writer();
    Enc.begin(W, Head, {}, R.Ts, R.Dur, R.Value);
    if (R.RecordKind != TraceRecord::Kind::Counter || Enc.CounterTakesArgs)
      for (const TraceArg &A : R.Args)
        W.arg(A.Key, A.str());
    W.end();
    W.commit();
  });
}

void JsonTraceSink::putObject(
    TraceCursor &W,
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  W.put("{");
  for (size_t I = 0; I != Meta.size(); ++I) {
    if (I != 0)
      W.put(",");
    W.putQuoted(Meta[I].first);
    W.put(":");
    W.putValue(Meta[I].second);
  }
  W.put("}");
}

TraceHead JsonlTraceSink::head(TraceRecord::Kind K, std::string_view Name,
                               Category Cat) {
  // Mid-stream metadata rows (kind "meta") are told apart from the
  // nameless header line by their name.
  static constexpr std::string_view Open[] = {
      "{\"kind\":\"instant\",\"name\":\"", "{\"kind\":\"span\",\"name\":\"",
      "{\"kind\":\"counter\",\"name\":\"", "{\"kind\":\"meta\",\"name\":\""};
  std::string Text(Open[static_cast<unsigned>(K)]);
  Text += Name;
  const size_t Split = Text.size();
  Text += "\",\"cat\":\"";
  Text += Cat;
  Text += "\",\"ts\":";
  return {K, TraceText(Text), Split};
}

void JsonlTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  TraceCursor W(*this);
  W.put("{\"kind\":\"meta\",\"args\":");
  putObject(W, Meta);
  W.put("}\n");
  W.commit();
}

void ChromeTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  // A trace-event metadata record: ph "M" carries no timeline semantics,
  // so viewers show the provenance without perturbing the rows.
  TraceCursor W(*this);
  W.put(First ? "[\n" : ",\n");
  First = false;
  W.put("{\"name\":\"zam_build\",\"cat\":\"meta\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"ts\":0,\"args\":");
  putObject(W, Meta);
  W.put("}");
  W.commit();
}

ChromeTraceSink::Category
ChromeTraceSink::category(std::string_view Encoded) {
  for (unsigned I = 0; I != Categories.size(); ++I)
    if (Categories[I].Text == Encoded)
      return {I};
  Categories.push_back({std::string(Encoded)});
  return {static_cast<unsigned>(Categories.size() - 1)};
}

TraceHead ChromeTraceSink::head(TraceRecord::Kind K, std::string_view Name,
                                Category Cat) {
  static constexpr std::string_view Phase[] = {
      "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":",
      "\",\"ph\":\"X\",\"pid\":1,\"tid\":",
      "\",\"ph\":\"C\",\"pid\":1,\"tid\":",
      "\",\"ph\":\"M\",\"pid\":1,\"tid\":"};
  CategoryRow &Row = Categories[Cat.Row];
  // Metadata rows carry no timeline semantics, so they stay off the
  // category rows (tid 0, like the provenance header); the others take
  // tids in the order their categories first appear, from 1.
  unsigned Tid = 0;
  if (K != TraceRecord::Kind::Meta) {
    if (Row.Tid == 0)
      Row.Tid = ++Tids;
    Tid = Row.Tid;
  }
  std::string Text = ",\n{\"name\":\"";
  Text += Name;
  const size_t Split = Text.size();
  Text += "\",\"cat\":\"";
  Text += Row.Text;
  Text += Phase[static_cast<unsigned>(K)];
  Text += std::to_string(Tid);
  Text += ",\"ts\":";
  return {K, TraceText(Text), Split};
}

void ChromeTraceSink::close() {
  if (!Closed) {
    Closed = true;
    TraceCursor W(*this);
    W.put(First ? "[]\n" : "\n]\n");
    W.commit();
  }
  TraceSink::close();
}
