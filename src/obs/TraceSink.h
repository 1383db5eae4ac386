//===- TraceSink.h - Structured trace output backends -----------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured-tracing side of the telemetry subsystem: a small record
/// model (instants, spans, counters on the simulated cycle clock) and one
/// encoder per serialization format —
///
///   - JsonlTraceSink: one JSON object per line, schema documented in
///     docs/OBSERVABILITY.md; grep/jq-friendly.
///   - ChromeTraceSink: the Chrome trace-event JSON array format
///     (`chrome://tracing` / Perfetto-loadable). Spans map to complete
///     "X" events, instants to "i" events, counters to "C" events.
///     Timestamps are simulated cycles reported in the format's µs field
///     (1 cycle = 1 µs); both viewers treat ts as unitless.
///   - ZtbTraceSink: the compact binary format (wire layout in obs/Ztb.h)
///     for million-window runs.
///
/// Each sink is its format's only serializer. Producers that know their
/// fields' types (exportTrace, exportObservation) reach it through
/// withEncoder() and write each record once, straight into the output:
/// begin() with kind, name, category, ts and dur, then typed args, then
/// end(). Strings that repeat across an export — level names, "assign x"
/// record names — are encoded once per export (encodeText/encodeValue)
/// and appended as they stand. TraceSink::record() takes a finished
/// TraceRecord (readers' records, ad-hoc rows, tests) through the same
/// calls.
///
/// Sinks write into a buffer they own and hand it to a caller-supplied
/// ByteSink in large chunks and at close(), so a trace is never held
/// whole: pass a FileByteSink to stream to disk in O(1) memory, or a
/// StringByteSink (the default) to capture bytes for tests and golden
/// comparisons. The bytes are final only after close(). Producers
/// (obs/Telemetry.h) emit records in nondecreasing Ts order so the Chrome
/// backend needs no sorting pass.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_TRACESINK_H
#define ZAM_OBS_TRACESINK_H

#include "obs/Ztb.h"

#include <charconv>
#include <cstring>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace zam {

/// One structured trace record on the simulated cycle clock.
struct TraceRecord {
  enum class Kind {
    Instant, ///< A point event (assignment, cache miss).
    Span,    ///< An interval [Ts, Ts + Dur] (mitigate window, step).
    Counter, ///< A sampled counter value at Ts.
    Meta,    ///< A mid-stream metadata row (periodic metrics snapshot).
  };

  Kind RecordKind = Kind::Instant;
  std::string Name;     ///< Event name, e.g. "mitigate#0" or "assign l".
  std::string Category; ///< Stream, e.g. "interp", "mit", "hw".
  uint64_t Ts = 0;      ///< Start time in cycles.
  uint64_t Dur = 0;     ///< Span length in cycles (Span only).
  double Value = 0;     ///< Counter sample (Counter only).
  /// Extra key/value detail; strings that parse as their own JSON scalars
  /// are the producer's responsibility to pre-quote — sinks emit values
  /// that read as JSON number literals (integer or decimal/exponent form)
  /// bare and quote everything else.
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Whether a record arg value reads as a bare JSON number literal (an
/// optional sign, digits, optional fraction/exponent). Text sinks emit
/// such values unquoted; readers use the same predicate to round-trip
/// args without a type side-channel.
bool traceArgIsNumberLiteral(std::string_view S);

/// Abstract destination for serialized trace bytes. Implementations must
/// accept writes in order; there is no seek.
class ByteSink {
public:
  virtual ~ByteSink();

  virtual void write(const char *Data, size_t Size) = 0;
  void write(const std::string &S) { write(S.data(), S.size()); }

  /// False once any write failed (short write, I/O error).
  virtual bool ok() const { return true; }
};

/// Buffers everything in memory; the pre-streaming behavior, still used by
/// tests and the byte-stability audits.
class StringByteSink final : public ByteSink {
public:
  void write(const char *Data, size_t Size) override {
    Out.append(Data, Size);
  }
  const std::string &str() const { return Out; }

private:
  std::string Out;
};

/// Streams to an open stdio FILE (not owned); the caller opens in binary
/// mode and closes after TraceSink::close(). O(1) memory.
class FileByteSink final : public ByteSink {
public:
  explicit FileByteSink(std::FILE *F) : F(F) {}

  void write(const char *Data, size_t Size) override {
    if (std::fwrite(Data, 1, Size, F) != Size)
      Ok = false;
  }
  bool ok() const override { return Ok; }

private:
  std::FILE *F;
  bool Ok = true;
};

/// Serialization format for exported traces.
enum class TraceFormat {
  Jsonl,  ///< One JSON object per line.
  Chrome, ///< Chrome trace-event array (chrome://tracing, Perfetto).
  Ztb,    ///< Compact binary (obs/Ztb.h) for million-window runs.
};

/// The encoders' output: a growable byte buffer whose appends inline to a
/// bounds check and a copy (std::string's appends are out-of-line calls,
/// which cost more than the encoding itself).
class TraceBuffer {
public:
  TraceBuffer &operator+=(std::string_view S) {
    append(S.data(), S.data() + S.size());
    return *this;
  }
  TraceBuffer &operator+=(char C) {
    *reserve(1) = C;
    ++Size;
    return *this;
  }
  void append(const char *Begin, const char *End) {
    const size_t N = End - Begin;
    if (N == 0)
      return; // An empty view's data() may be null, which memcpy rejects.
    std::memcpy(reserve(N), Begin, N);
    Size += N;
  }
  /// Appends the decimal digits of \p V, with a '-' when negative.
  template <typename Int> void appendInt(Int V) {
    static_assert(std::is_integral_v<Int> && sizeof(Int) <= 8);
    if constexpr (std::is_signed_v<Int>) {
      if (V < 0) {
        *this += '-';
        appendDecimal(0 - static_cast<uint64_t>(V));
        return;
      }
    }
    appendDecimal(static_cast<uint64_t>(V));
  }
  /// Appends "0x" and the lower-case hex digits of \p V.
  void appendHex(uint64_t V) {
    char *At = reserve(2 + kMaxDigits);
    At[0] = '0';
    At[1] = 'x';
    Size = std::to_chars(At + 2, At + 2 + kMaxDigits, V, 16).ptr - Data.get();
  }

  const char *data() const { return Data.get(); }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  void clear() { Size = 0; }

private:
  /// Digits of the largest uint64_t, in any base from 10 up.
  static constexpr size_t kMaxDigits = 20;
  /// The first allocation, so small records do not regrow it one by one.
  static constexpr size_t kMinCapacity = 4096;

  /// Writes the digits two at a time from the back of a stack buffer,
  /// then copies a fixed kMaxDigits bytes from the first digit: a copy
  /// the compiler inlines, where a copy of the digit count is a call.
  [[gnu::always_inline]] void appendDecimal(uint64_t V) {
    static constexpr char Pairs[] = "00010203040506070809"
                                    "10111213141516171819"
                                    "20212223242526272829"
                                    "30313233343536373839"
                                    "40414243444546474849"
                                    "50515253545556575859"
                                    "60616263646566676869"
                                    "70717273747576777879"
                                    "80818283848586878889"
                                    "90919293949596979899";
    char Digits[2 * kMaxDigits] = {};
    char *const End = Digits + kMaxDigits;
    char *First = End;
    while (V >= 100) {
      First -= 2;
      std::memcpy(First, Pairs + 2 * (V % 100), 2);
      V /= 100;
    }
    if (V >= 10) {
      First -= 2;
      std::memcpy(First, Pairs + 2 * V, 2);
    } else {
      *--First = static_cast<char>('0' + V);
    }
    std::memcpy(reserve(kMaxDigits), First, kMaxDigits);
    Size += End - First;
  }

  /// Room for \p N more bytes; \returns where they go.
  char *reserve(size_t N) {
    if (Capacity - Size < N)
      grow(N);
    return Data.get() + Size;
  }
  void grow(size_t N);

  std::unique_ptr<char[]> Data;
  size_t Size = 0;
  size_t Capacity = 0;
};

/// Abstract consumer of trace records. Default-constructed sinks buffer
/// into an internal StringByteSink retrievable via finish(); sinks built
/// over an external ByteSink are finalized with close().
class TraceSink {
public:
  /// Buffers into an owned StringByteSink (finish() returns it).
  TraceSink();
  /// Streams through \p Sink (not owned); call close() when done.
  explicit TraceSink(ByteSink &Sink);
  virtual ~TraceSink();

  /// The format this sink encodes (selects its class in withEncoder).
  virtual TraceFormat format() const = 0;

  /// Optional provenance preamble (build hash, compiler, ...). Must be
  /// called before the first record; the default drops it. JSONL emits a
  /// kind:"meta" first line, Chrome a ph:"M" metadata event — offline
  /// readers (obs/TraceReader.h, tools/zamtrace) skip both when
  /// aggregating.
  virtual void header(
      const std::vector<std::pair<std::string, std::string>> &Meta);

  /// Consumes one record. Records must arrive in nondecreasing Ts order.
  virtual void record(const TraceRecord &R) = 0;

  /// Emits any format trailer and writes every buffered byte to the
  /// ByteSink (idempotent). The byte stream is complete — and FileByteSink
  /// contents valid — only after close().
  virtual void close() { flush(); }

  /// close(), then the full buffered serialization. Only meaningful for
  /// default-constructed (string-buffered) sinks; external-sink instances
  /// return an empty string because their bytes already left the process.
  const std::string &finish();

  /// Whether every write to the ByteSink so far succeeded. Bytes still in
  /// the buffer have not been written: read it after close().
  bool ok() const { return Sink->ok(); }

protected:
  /// Ends a record: hands the buffer to the ByteSink once it holds a
  /// chunk's worth.
  void endRecord() {
    if (Out.size() >= kChunkBytes)
      flush();
  }
  void flush();

  /// The encoded bytes not yet written to the ByteSink.
  TraceBuffer Out;

private:
  static constexpr size_t kChunkBytes = 64 * 1024;

  std::unique_ptr<StringByteSink> Owned;
  ByteSink *Sink;
};

/// The decimal index at the end of a record name ("7" in "mitigate#7", or
/// "[7]" in "assign a[7]"), formatted on the stack for begin().
class TraceNameIndex {
public:
  TraceNameIndex() = default;
  explicit TraceNameIndex(uint64_t V, bool Bracketed = false) {
    char *P = Buf;
    if (Bracketed)
      *P++ = '[';
    P = std::to_chars(P, Buf + sizeof(Buf), V).ptr;
    if (Bracketed)
      *P++ = ']';
    Size = P - Buf;
  }
  operator std::string_view() const { return {Buf, Size}; }

private:
  char Buf[24] = {};
  size_t Size = 0;
};

// The typed encoder calls, the same on all three sinks:
//
//   begin(Kind, Name, Suffix, Category, Ts, Dur = 0)
//     Opens a record. Name and Category come as encodeText() returns them
//     (a literal of letters, digits, '_', '#', ' ' passes as it stands);
//     Suffix is appended to the name unescaped (a TraceNameIndex).
//   counter(Value)       A Counter record's sample, before any arg.
//   argInt / argHex / argBool / argDouble (Key, V)
//     An integer (bare), "0x<hex>", "true"/"false", or a double in its
//     shortest round-trip form (bare when finite).
//   argValue(Key, Encoded)  A value as encodeValue() returned it.
//   argText(Key, Raw)       argValue(Key, encodeValue(Raw)) without the
//                           intermediate string.
//   end()                Closes the record.
//
// Keys are plain literals that need no escaping in any format.

/// What the two JSON formats share: string escaping and the args object.
class JsonTraceSink : public TraceSink {
public:
  using TraceSink::TraceSink;

  /// \p Raw escaped as the body of a JSON string, without the quotes.
  static std::string encodeText(std::string_view Raw);
  /// \p Raw as a JSON arg value: bare when it reads as a number literal,
  /// a quoted string otherwise.
  static std::string encodeValue(std::string_view Raw);

  template <typename Int> void argInt(std::string_view Key, Int V) {
    key(Key);
    Out.appendInt(V);
  }
  void argHex(std::string_view Key, uint64_t V) {
    key(Key);
    Out += '"';
    Out.appendHex(V);
    Out += '"';
  }
  void argBool(std::string_view Key, bool V) {
    key(Key);
    Out += V ? "\"true\"" : "\"false\"";
  }
  void argDouble(std::string_view Key, double V);
  void argValue(std::string_view Key, std::string_view Encoded) {
    key(Key);
    Out += Encoded;
  }
  void argText(std::string_view Key, std::string_view Raw);

protected:
  /// Opens arg \p Key: the args object on the record's first arg.
  [[gnu::always_inline]] void key(std::string_view Key) {
    Out += Args++ ? ",\"" : ",\"args\":{\"";
    Out += Key;
    Out += "\":";
  }
  /// Closes the args object, if the record opened one.
  void closeArgs() {
    if (Args != 0)
      Out += '}';
    Args = 0;
  }
  /// A TraceRecord's args, whose keys may need escaping.
  void recordArgs(const TraceRecord &R);
  /// \p Meta as a complete JSON object (the header's args).
  void appendObject(
      const std::vector<std::pair<std::string, std::string>> &Meta);
  /// \p R's name and category escaped for begin().
  void encodeNames(const TraceRecord &R);

  /// The args the open record has.
  unsigned Args = 0;
  /// encodeNames' output.
  std::string RecordName, RecordCategory;
};

/// JSON-Lines backend: one object per record, keys in a fixed order
/// (kind, name, cat, ts, then dur/value/args as applicable).
class JsonlTraceSink final : public JsonTraceSink {
public:
  using JsonTraceSink::JsonTraceSink;

  TraceFormat format() const override { return TraceFormat::Jsonl; }
  void header(
      const std::vector<std::pair<std::string, std::string>> &Meta) override;
  void record(const TraceRecord &R) override;

  [[gnu::always_inline]] void
  begin(TraceRecord::Kind K, std::string_view Name, std::string_view Suffix,
        std::string_view Category, uint64_t Ts, uint64_t Dur = 0) {
    // Mid-stream metadata rows (kind "meta") are told apart from the
    // nameless header line by their name.
    static constexpr std::string_view Open[] = {
        "{\"kind\":\"instant\",\"name\":\"", "{\"kind\":\"span\",\"name\":\"",
        "{\"kind\":\"counter\",\"name\":\"", "{\"kind\":\"meta\",\"name\":\""};
    Out += Open[static_cast<unsigned>(K)];
    Out += Name;
    Out += Suffix;
    Out += "\",\"cat\":\"";
    Out += Category;
    Out += "\",\"ts\":";
    Out.appendInt(Ts);
    if (K == TraceRecord::Kind::Span) {
      Out += ",\"dur\":";
      Out.appendInt(Dur);
    }
  }
  void counter(double V);
  void end() {
    closeArgs();
    Out += "}\n";
    endRecord();
  }
};

/// Chrome trace-event backend: a JSON array of events with ph "X" (complete
/// span), "i" (thread-scoped instant), "C" (counter) or "M" (metadata).
/// pid is always 1; tid encodes the category so viewers lay streams out as
/// separate rows. A Counter record carries its value as its only arg.
class ChromeTraceSink final : public JsonTraceSink {
public:
  using JsonTraceSink::JsonTraceSink;

  TraceFormat format() const override { return TraceFormat::Chrome; }
  void header(
      const std::vector<std::pair<std::string, std::string>> &Meta) override;
  void record(const TraceRecord &R) override;
  void close() override;

  [[gnu::always_inline]] void
  begin(TraceRecord::Kind K, std::string_view Name, std::string_view Suffix,
        std::string_view Category, uint64_t Ts, uint64_t Dur = 0) {
    static constexpr std::string_view Phase[] = {
        "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":",
        "\",\"ph\":\"X\",\"pid\":1,\"tid\":", "\",\"ph\":\"C\",\"pid\":1,\"tid\":",
        "\",\"ph\":\"M\",\"pid\":1,\"tid\":"};
    Out += First ? "[\n{\"name\":\"" : ",\n{\"name\":\"";
    First = false;
    Out += Name;
    Out += Suffix;
    Out += "\",\"cat\":\"";
    Out += Category;
    Out += Phase[static_cast<unsigned>(K)];
    // Metadata rows carry no timeline semantics, so they stay off the
    // category rows (tid 0, like the provenance header).
    Out.appendInt(K == TraceRecord::Kind::Meta ? 0u : tidFor(Category));
    Out += ",\"ts\":";
    Out.appendInt(Ts);
    if (K == TraceRecord::Kind::Span) {
      Out += ",\"dur\":";
      Out.appendInt(Dur);
    }
  }
  void counter(double V);
  void end() {
    closeArgs();
    Out += '}';
    endRecord();
  }

private:
  /// Stable row id for an encoded category (registration order, from 1).
  unsigned tidFor(std::string_view Category) {
    for (unsigned I = 0; I != Categories.size(); ++I)
      if (Categories[I] == Category)
        return I + 1;
    Categories.emplace_back(Category);
    return Categories.size();
  }

  std::vector<std::string> Categories;
  bool First = true;
  bool Closed = false;
};

/// Binary backend: varint-encoded records behind a versioned provenance
/// preamble, with periodic frame markers (obs/Ztb.h). Strings are raw
/// bytes, so encodeText and encodeValue return their input.
class ZtbTraceSink final : public TraceSink {
public:
  using TraceSink::TraceSink;

  TraceFormat format() const override { return TraceFormat::Ztb; }
  void header(
      const std::vector<std::pair<std::string, std::string>> &Meta) override;
  void record(const TraceRecord &R) override;

  static std::string encodeText(std::string_view Raw) {
    return std::string(Raw);
  }
  static std::string encodeValue(std::string_view Raw) {
    return std::string(Raw);
  }

  void begin(TraceRecord::Kind K, std::string_view Name,
             std::string_view Suffix, std::string_view Category, uint64_t Ts,
             uint64_t Dur = 0) {
    ensurePreamble();
    Payload.clear();
    ArgBytes.clear();
    Args = 0;
    Payload += static_cast<char>(static_cast<unsigned>(K) + ztb::KindInstant);
    ztb::appendVarint(Payload, Name.size() + Suffix.size());
    Payload += Name;
    Payload += Suffix;
    ztb::appendString(Payload, Category);
    ztb::appendVarint(Payload, Ts);
    if (K == TraceRecord::Kind::Span)
      ztb::appendVarint(Payload, Dur);
  }
  void counter(double V);
  template <typename Int> void argInt(std::string_view Key, Int V) {
    char Buf[24];
    argValue(Key, {Buf, static_cast<size_t>(
                            std::to_chars(Buf, Buf + sizeof(Buf), V).ptr -
                            Buf)});
  }
  void argHex(std::string_view Key, uint64_t V) {
    char Buf[24] = {'0', 'x'};
    argValue(Key, {Buf, static_cast<size_t>(
                            std::to_chars(Buf + 2, Buf + sizeof(Buf), V, 16)
                                .ptr -
                            Buf)});
  }
  void argBool(std::string_view Key, bool V) {
    argValue(Key, V ? "true" : "false");
  }
  void argDouble(std::string_view Key, double V);
  void argValue(std::string_view Key, std::string_view Encoded) {
    ++Args;
    ztb::appendString(ArgBytes, Key);
    ztb::appendString(ArgBytes, Encoded);
  }
  void argText(std::string_view Key, std::string_view Raw) {
    argValue(Key, Raw);
  }
  void end();

private:
  /// Writes the magic/version/empty-header preamble if header() never ran.
  void ensurePreamble() {
    if (!WrotePreamble)
      header({});
  }

  bool WrotePreamble = false;
  uint64_t RecordCount = 0;
  /// The open record's payload up to its arg count, and its encoded args:
  /// the payload's length prefix needs both.
  std::string Payload;
  uint64_t Args = 0;
  std::string ArgBytes;
};

/// Calls \p F with \p Sink as its concrete sink class, so a producer's
/// typed encoder calls bind straight to that format's serializer.
template <typename Fn> decltype(auto) withEncoder(TraceSink &Sink, Fn &&F) {
  switch (Sink.format()) {
  case TraceFormat::Jsonl:
    return F(static_cast<JsonlTraceSink &>(Sink));
  case TraceFormat::Chrome:
    return F(static_cast<ChromeTraceSink &>(Sink));
  case TraceFormat::Ztb:
    break;
  }
  return F(static_cast<ZtbTraceSink &>(Sink));
}

} // namespace zam

#endif // ZAM_OBS_TRACESINK_H
