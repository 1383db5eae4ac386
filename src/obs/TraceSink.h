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
/// fields' types (exportTrace, ObservationExporter) reach it through
/// withEncoder() and write each record once, straight into the output,
/// through a writer: a small value holding the output cursor, opened once
/// for a run of records. begin() starts a record on it from a prepared
/// head — the record's kind, name and category in the format's bytes,
/// built once per export (head()) — with the name's index suffix, ts and
/// dur; the writer then takes the typed args and end(). Strings that
/// repeat across an export — level names, record heads — are encoded once
/// and copied as they stand. TraceSink::record() takes a finished
/// TraceRecord (obs/TraceSchema.h: a reader's record, a test's) through the
/// same calls.
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

#include "obs/Json.h"
#include "obs/TraceSchema.h"
#include "obs/Ztb.h"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace zam {

/// Whether a record arg value reads as a bare JSON number literal (an
/// optional sign, digits, optional fraction/exponent). Text sinks emit
/// such values unquoted and quote every other one.
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

/// An arg key: a literal of letters, digits and '_', at most kMaxLength
/// bytes, checked at compile time. Its bytes are a constant in the writer
/// calls, which inline: a key and its punctuation compile to a few stores
/// of immediates.
class TraceKey {
public:
  static constexpr size_t kMaxLength = 24;
  /// The most bytes a key takes with its framing in any format (JSON's
  /// `,"args":{"` and `":`).
  static constexpr size_t kMaxFramed = kMaxLength + 12;

  template <size_t N>
  consteval TraceKey(const char (&Key)[N]) : Name(Key, N - 1) {
    static_assert(N - 1 <= kMaxLength, "trace arg keys are short literals");
    for (const char C : Name)
      if (!((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
            (C >= '0' && C <= '9') || C == '_'))
        keyNeedsEscaping();
  }

  std::string_view Name;

private:
  /// Not constexpr: a call in a constant evaluation fails to compile.
  static void keyNeedsEscaping() {}
};

/// The encoders' output: a growable byte buffer. A record writer fills its
/// free space through a cursor it holds in locals (TraceCursor) and commits
/// the bytes when its run of records ends or fills a chunk; until then the
/// buffer's size stays at the run's first byte.
class TraceBuffer {
public:
  /// Free space: bytes [At, Limit) of the buffer that starts at Data may
  /// be written.
  struct Room {
    char *Data;
    char *At;
    char *Limit;
  };

  Room room() {
    return {Data.get(), Data.get() + Size, Data.get() + Capacity};
  }
  /// Room for \p N bytes at the cursor \p At, keeping every byte before it
  /// (the committed ones and the open run's). \returns the moved buffer,
  /// cursor and limit.
  Room grow(char *At, size_t N);
  /// Makes the bytes before \p At part of the buffer.
  void commit(const char *At) { Size = At - Data.get(); }

  const char *data() const { return Data.get(); }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  void clear() { Size = 0; }

private:
  /// The first allocation, so small records do not regrow it one by one.
  static constexpr size_t kMinCapacity = 4096;

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

  /// Consumes one finished record — a reader's record, a test's — through
  /// the format's record writer, each arg as its text (TraceArg::str()).
  /// Records must arrive in nondecreasing Ts order.
  void record(const TraceRecord &R);

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
  friend class TraceCursor;
  friend class ZtbRecordWriter;

  /// A buffer that holds this many bytes when a record ends goes to the
  /// ByteSink.
  static constexpr size_t kChunkBytes = 64 * 1024;

  /// Commits the bytes before \p At and hands the buffer to the ByteSink
  /// once it holds a chunk's worth.
  void commit(const char *At) {
    Out.commit(At);
    if (Out.size() >= kChunkBytes)
      flush();
  }
  void flush();

  /// The encoded bytes not yet written to the ByteSink.
  TraceBuffer Out;

private:
  std::unique_ptr<StringByteSink> Owned;
  ByteSink *Sink;
};

namespace trace_detail {

/// Writes \p S at \p P (which has room for it) and \returns its end.
[[gnu::always_inline]] inline char *copy(char *P, std::string_view S) {
  if (!S.empty()) // An empty view's data() may be null, which memcpy rejects.
    std::memcpy(P, S.data(), S.size());
  return P + S.size();
}

/// 10^0 through 10^19.
inline constexpr auto kPow10 = [] {
  std::array<uint64_t, 20> P{};
  uint64_t V = 1;
  for (uint64_t &X : P) {
    X = V;
    V *= 10;
  }
  return P;
}();

/// The number of decimal digits of \p V (1 for 0).
[[gnu::always_inline]] inline unsigned decimalLength(uint64_t V) {
  // 1233 / 4096 is just below log10(2): T is floor(log10(V)) or one less.
  const unsigned T = (std::bit_width(V | 1) * 1233) >> 12;
  return T + ((V | 1) >= kPow10[T]);
}

/// Writes the decimalLength(\p V) digits of \p V so that they end at
/// \p End, two at a time from the back.
[[gnu::always_inline]] inline void writeDigits(char *End, uint64_t V) {
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
  while (V >= 100) {
    End -= 2;
    std::memcpy(End, Pairs + 2 * (V % 100), 2);
    V /= 100;
  }
  if (V >= 10)
    std::memcpy(End - 2, Pairs + 2 * V, 2);
  else
    End[-1] = static_cast<char>('0' + V);
}

/// The most bytes writeInt writes: a sign and the 20 digits of a uint64_t.
inline constexpr size_t kMaxIntChars = 21;

/// The magnitude of \p V and whether it is negative.
template <typename Int>
[[gnu::always_inline]] inline std::pair<uint64_t, bool> magnitude(Int V) {
  static_assert(std::is_integral_v<Int> && sizeof(Int) <= 8);
  if constexpr (std::is_signed_v<Int>)
    if (V < 0)
      return {0 - static_cast<uint64_t>(V), true};
  return {static_cast<uint64_t>(V), false};
}

/// Writes the decimal form of \p V at \p P, with a '-' when negative, and
/// \returns its end.
template <typename Int>
[[gnu::always_inline]] inline char *writeInt(char *P, Int V) {
  const auto [Mag, Negative] = magnitude(V);
  if (Negative)
    *P++ = '-';
  P += decimalLength(Mag);
  writeDigits(P, Mag);
  return P;
}

/// The most bytes writeHex writes: "0x" and 16 hex digits.
inline constexpr size_t kMaxHexChars = 18;

/// Writes "0x" and the lower-case hex digits of \p V at \p P and \returns
/// their end.
[[gnu::always_inline]] inline char *writeHex(char *P, uint64_t V) {
  *P++ = '0';
  *P++ = 'x';
  char *const End = P + (std::bit_width(V | 1) + 3) / 4;
  for (char *D = End; D != P; V >>= 4)
    *--D = "0123456789abcdef"[V & 0xF];
  return End;
}

/// The most bytes a double takes in the encoders' two forms: the shortest
/// round trip (writeJsonNumber) and "%.17g".
inline constexpr size_t kMaxDoubleChars = kJsonNumberMaxChars;

/// Writes \p V as "%.17g" does.
inline char *writeDouble17(char *P, double V) {
  return std::to_chars(P, P + kMaxDoubleChars, V, std::chars_format::general,
                       17)
      .ptr;
}

/// Writes \p S as a JSON arg value — bare when it reads as a number
/// literal, a quoted escaped string otherwise (at most 6 bytes per byte of
/// \p S, plus 2) — and \returns its end.
char *writeJsonValue(char *P, std::string_view S);

} // namespace trace_detail

/// The decimal index at the end of a record name ("7" in "mitigate#7", or
/// "[7]" in "assign a[7]"), which begin() writes between the two parts of
/// the record's head.
class TraceNameIndex {
public:
  /// The most bytes an index takes.
  static constexpr size_t kMaxSize = trace_detail::kMaxIntChars + 2;

  /// No index.
  TraceNameIndex() = default;
  explicit TraceNameIndex(uint64_t V, bool Bracketed = false)
      : V(V), Form(Bracketed ? Style::Bracketed : Style::Plain) {}

  bool empty() const { return Form == Style::None; }
  /// Its length in bytes.
  [[gnu::always_inline]] size_t size() const {
    if (Form == Style::None)
      return 0;
    return trace_detail::decimalLength(V) + (Form == Style::Bracketed ? 2 : 0);
  }
  /// Writes it at \p P and \returns its end.
  [[gnu::always_inline]] char *write(char *P) const {
    if (Form == Style::Bracketed)
      *P++ = '[';
    P = trace_detail::writeInt(P, V);
    if (Form == Style::Bracketed)
      *P++ = ']';
    return P;
  }

private:
  uint64_t V = 0;
  enum class Style : uint8_t { None, Plain, Bracketed } Form = Style::None;
};

/// Bytes encoded once and copied as they stand many times: record heads
/// and level names. They are kept with a block of zeros after them, so a
/// copy of any part moves whole 16-byte blocks — a few vector moves, no
/// call — and writes up to kSlack bytes past its end, which the
/// destination must have room for.
class TraceText {
public:
  static constexpr size_t kBlock = 16;
  static constexpr size_t kSlack = kBlock - 1;

  TraceText() = default;
  explicit TraceText(std::string_view S) : Size(S.size()) {
    Bytes.reserve(Size + kBlock);
    Bytes.assign(S);
    Bytes.resize(Size + kBlock, '\0');
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  /// Writes bytes [\p From, \p To) at \p P and \returns their end.
  [[gnu::always_inline]] char *write(char *P, size_t From, size_t To) const {
    // A local: the stores through P could alias Bytes' own pointer.
    const char *const Src = Bytes.data();
    for (size_t I = From; I < To; I += kBlock)
      std::memcpy(P + (I - From), Src + I, kBlock);
    return P + (To - From);
  }
  [[gnu::always_inline]] char *write(char *P) const {
    return write(P, 0, Size);
  }

private:
  std::string Bytes;
  size_t Size = 0;
};

/// A record's prepared head: the bytes a sink's begin() writes before the
/// timestamp — the record's kind, name and category in the sink's format —
/// built once by its head() and copied as they stand. A record name's
/// index (TraceNameIndex) goes at Split, where the name ends.
struct TraceHead {
  TraceRecord::Kind Kind = TraceRecord::Kind::Instant;
  TraceText Text;
  size_t Split = 0;

  /// Not built yet: every built head has bytes.
  bool empty() const { return Text.empty(); }
  /// Writes the head at \p P, which has room for it, \p Index and
  /// TraceText::kSlack more bytes, with \p Index at \p Split. \returns its
  /// end.
  [[gnu::always_inline]] char *write(char *P, TraceNameIndex Index) const {
    if (Index.empty())
      return Text.write(P);
    P = Text.write(P, 0, Split);
    return Text.write(Index.write(P), Split, Text.size());
  }
};

/// A writer's cursor into its sink's buffer. A writer is a small value
/// that lives in the producer's locals: it keeps the cursor, the buffer's
/// start and its limit there (the buffer's own size is not touched until
/// the writer commits), makes one capacity check per call for everything
/// the call writes, and commits its records in commit() — or, in a long
/// run of records, at the end of the one that fills a chunk. One writer is
/// open on a sink at a time; nothing else may write to the sink until it
/// commits.
///
/// Nothing on a writer's path takes its address — its cold paths take the
/// cursor by value and return it — so the cursor stays in registers.
class TraceCursor {
public:
  explicit TraceCursor(TraceSink &Sink) : Sink(&Sink) {
    const TraceBuffer::Room R = Sink.Out.room();
    Data = R.Data;
    At = R.At;
    Limit = R.Limit;
  }

  /// Room for \p N bytes at the cursor; \returns the cursor. The caller
  /// writes and then moves At past what it wrote.
  [[gnu::always_inline]] char *room(size_t N) {
    if (static_cast<size_t>(Limit - At) < N) [[unlikely]] {
      const TraceBuffer::Room R = Sink->Out.grow(At, N);
      Data = R.Data;
      At = R.At;
      Limit = R.Limit;
    }
    guard(At, Limit, N);
    return At;
  }
  [[gnu::always_inline]] void put(std::string_view S) {
    At = trace_detail::copy(room(S.size()), S);
  }
  /// \p S as a quoted, escaped JSON string.
  void putQuoted(std::string_view S) {
    char *P = room(6 * S.size() + 2);
    *P++ = '"';
    P = writeJsonEscaped(P, S);
    *P++ = '"';
    At = P;
  }
  /// \p S as a JSON arg value (bare when it reads as a number literal).
  void putValue(std::string_view S) {
    At = trace_detail::writeJsonValue(room(6 * S.size() + 2), S);
  }
  /// Commits what the cursor wrote; the cursor is spent.
  void commit() { Sink->commit(At); }

protected:
  friend class JsonlTraceSink;
  friend class ChromeTraceSink;
  friend class ZtbTraceSink;

  /// In AddressSanitizer builds, leaves only the \p N bytes at \p At
  /// writable in the free space [At, Limit): a writer that reserved too
  /// little is reported at the write that passes its reservation, not only
  /// when it passes the end of the allocation.
  static void guard(char *At, char *Limit, size_t N) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(At, Limit - At);
    ASAN_POISON_MEMORY_REGION(At + N, Limit - At - N);
#else
    (void)At, (void)Limit, (void)N;
#endif
  }

  /// Ends a record. Once the buffer holds a chunk's worth, commits it —
  /// which hands it to the ByteSink — and goes on at its start.
  [[gnu::always_inline]] void endRecord() {
    if (static_cast<size_t>(At - Data) >= TraceSink::kChunkBytes)
        [[unlikely]] {
      Sink->commit(At);
      At = Data;
    }
  }

  TraceSink *Sink;
  char *Data;
  char *At;
  char *Limit;
};

// The typed encoder calls, the same on all three sinks:
//
//   category(Encoded)
//     A record category as head() takes it, from an encodeText() result or
//     a plain literal; call it once per export, not once per record.
//   head(Kind, Name, Category) -> TraceHead
//     The prepared head of the records of one kind, name and category.
//     Name comes as encodeText() returns it (a literal of letters, digits,
//     '_', '#', ' ' passes as it stands). Build it once per export, at its
//     first record: a Chrome head gives its category's tid.
//   writer() -> writer
//     Opens the sink's writer, by value, for a run of records.
//   begin(Writer, Head, Index, Ts, Dur = 0, Value = 0)
//     Starts a record on the writer: the head, with Index (a
//     TraceNameIndex, possibly empty) at the end of its name, and Ts. Dur
//     is a Span's length, Value a Counter's sample.
//
// and on the writer:
//
//   argInt / argHex / argBool / argDouble (Key, V)
//     An integer (bare), "0x<hex>", "true"/"false", or a double in its
//     shortest round-trip form (bare when finite).
//   argValue(Key, Encoded)  A value as encodeValue() returned it.
//   argText(Key, Raw)       argValue(Key, encodeValue(Raw)) without the
//                           intermediate string.
//   arg(Key, Value)         A TraceRecord's arg (record() only): the key
//                           escaped, the value as argText.
//   end()                   Closes the record.
//   commit()                Commits the writer's records; it is spent.
//
// Keys are TraceKeys: literals that need no escaping in any format. The
// writer's calls inline into the producer, so a run of records is written
// through one cursor held in registers, with one capacity check per call.

/// A JSON record's writer, for JSONL (\p Lines: each record ends its line)
/// and Chrome.
template <bool Lines> class JsonRecordWriter : public TraceCursor {
public:
  using TraceCursor::TraceCursor;

  template <typename Int>
  [[gnu::always_inline]] void argInt(TraceKey Key, Int V) {
    At = trace_detail::writeInt(key(Key, trace_detail::kMaxIntChars), V);
  }
  [[gnu::always_inline]] void argHex(TraceKey Key, uint64_t V) {
    char *P = key(Key, trace_detail::kMaxHexChars + 2);
    *P++ = '"';
    P = trace_detail::writeHex(P, V);
    *P++ = '"';
    At = P;
  }
  [[gnu::always_inline]] void argBool(TraceKey Key, bool V) {
    char *P = key(Key, 8);
    std::memcpy(P, V ? "\"true\"\0" : "\"false\"", 8);
    At = P + (V ? 6 : 7);
  }
  [[gnu::always_inline]] void argDouble(TraceKey Key, double V) {
    char *P = key(Key, trace_detail::kMaxDoubleChars + 2);
    // Only inf and nan fail to read as a number literal.
    const bool Quoted = !std::isfinite(V);
    if (Quoted)
      *P++ = '"';
    P = writeJsonNumber(P, V);
    if (Quoted)
      *P++ = '"';
    At = P;
  }
  [[gnu::always_inline]] void argValue(TraceKey Key,
                                       const TraceText &Encoded) {
    At = Encoded.write(key(Key, Encoded.size() + TraceText::kSlack));
  }
  void argText(TraceKey Key, std::string_view Raw) {
    At = trace_detail::writeJsonValue(key(Key, 6 * Raw.size() + 2), Raw);
  }
  /// A TraceRecord's arg, whose key may need escaping.
  void arg(std::string_view Key, std::string_view Value) {
    char *P = room(10 + 6 * Key.size() + 2 + 6 * Value.size() + 2);
    P = trace_detail::copy(P, Args++ ? "," : ",\"args\":{");
    *P++ = '"';
    P = writeJsonEscaped(P, Key);
    *P++ = '"';
    *P++ = ':';
    At = trace_detail::writeJsonValue(P, Value);
  }
  [[gnu::always_inline]] void end() {
    char *P = room(3);
    if (Args != 0)
      *P++ = '}';
    *P++ = '}';
    if constexpr (Lines)
      *P++ = '\n';
    At = P;
    endRecord();
  }

private:
  friend class JsonlTraceSink;
  friend class ChromeTraceSink;

  /// Writes \p Key framed — opening the args object on the record's first
  /// arg — with room for \p ValueBytes after it; \returns where the value
  /// goes.
  [[gnu::always_inline]] char *key(TraceKey Key, size_t ValueBytes) {
    char *P = room(TraceKey::kMaxFramed + ValueBytes);
    P = trace_detail::copy(P, Args++ ? ",\"" : ",\"args\":{\"");
    P = trace_detail::copy(P, Key.Name);
    *P++ = '"';
    *P++ = ':';
    return P;
  }

  /// The args the open record has written.
  unsigned Args = 0;
};

/// What the two JSON formats share: string escaping, the header's object
/// and the start of a record.
class JsonTraceSink : public TraceSink {
public:
  using TraceSink::TraceSink;

  /// \p Raw escaped as the body of a JSON string, without the quotes.
  static std::string encodeText(std::string_view Raw);
  /// \p Raw as a JSON arg value: bare when it reads as a number literal,
  /// a quoted string otherwise.
  static std::string encodeValue(std::string_view Raw);

protected:
  /// Writes \p Meta as a complete JSON object (the header's args).
  static void putObject(
      TraceCursor &W,
      const std::vector<std::pair<std::string, std::string>> &Meta);

  /// Starts a record at \p P, which has room for it: \p H with \p Index at
  /// the end of its name, \p Ts, and a Span's \p Dur. \returns its end.
  [[gnu::always_inline]] static char *putHead(char *P, const TraceHead &H,
                                              TraceNameIndex Index,
                                              uint64_t Ts, uint64_t Dur) {
    P = trace_detail::writeInt(H.write(P, Index), Ts);
    if (H.Kind == TraceRecord::Kind::Span) {
      P = trace_detail::copy(P, ",\"dur\":");
      P = trace_detail::writeInt(P, Dur);
    }
    return P;
  }

  /// The most bytes a begin() writes besides the head, with the head's
  /// slack.
  static constexpr size_t kMaxBeginFixed =
      96 + TraceNameIndex::kMaxSize + TraceText::kSlack +
      2 * trace_detail::kMaxIntChars + trace_detail::kMaxDoubleChars;
};

/// JSON-Lines backend: one object per record, keys in a fixed order
/// (kind, name, cat, ts, then dur/value/args as applicable).
class JsonlTraceSink final : public JsonTraceSink {
public:
  using JsonTraceSink::JsonTraceSink;
  using Writer = JsonRecordWriter<true>;
  using Category = std::string_view;
  static constexpr bool CounterTakesArgs = true;

  TraceFormat format() const override { return TraceFormat::Jsonl; }
  void header(
      const std::vector<std::pair<std::string, std::string>> &Meta) override;

  static Category category(std::string_view Encoded) { return Encoded; }
  /// `{"kind":"<kind>","name":"<Name>` and `","cat":"<Cat>","ts":`.
  static TraceHead head(TraceRecord::Kind K, std::string_view Name,
                        Category Cat);
  Writer writer() { return Writer(*this); }

  [[gnu::always_inline]] void begin(Writer &W, const TraceHead &H,
                                    TraceNameIndex Index, uint64_t Ts,
                                    uint64_t Dur = 0, double Value = 0) {
    char *P = W.room(H.Text.size() + kMaxBeginFixed);
    P = putHead(P, H, Index, Ts, Dur);
    if (H.Kind == TraceRecord::Kind::Counter) {
      P = trace_detail::copy(P, ",\"value\":");
      P = trace_detail::writeDouble17(P, Value);
    }
    W.At = P;
    W.Args = 0;
  }
};

/// Chrome trace-event backend: a JSON array of events with ph "X" (complete
/// span), "i" (thread-scoped instant), "C" (counter) or "M" (metadata).
/// pid is always 1; tid encodes the category so viewers lay streams out as
/// separate rows. A Counter record carries its value as its only arg.
class ChromeTraceSink final : public JsonTraceSink {
public:
  using JsonTraceSink::JsonTraceSink;
  using Writer = JsonRecordWriter<false>;
  static constexpr bool CounterTakesArgs = false;

  /// A category registered with the sink: an index into its rows.
  struct Category {
    unsigned Row;
  };

  TraceFormat format() const override { return TraceFormat::Chrome; }
  void header(
      const std::vector<std::pair<std::string, std::string>> &Meta) override;
  void close() override;

  /// The row of category \p Encoded, added on first use. Its tid is given
  /// by its first timeline record's head.
  Category category(std::string_view Encoded);
  /// `,\n{"name":"<Name>` and `","cat":"<Cat>","ph":...,"tid":<tid>,"ts":`
  /// (begin() turns the first record's comma into the array's '[').
  TraceHead head(TraceRecord::Kind K, std::string_view Name, Category Cat);
  Writer writer() { return Writer(*this); }

  [[gnu::always_inline]] void begin(Writer &W, const TraceHead &H,
                                    TraceNameIndex Index, uint64_t Ts,
                                    uint64_t Dur = 0, double Value = 0) {
    char *const Start = W.room(H.Text.size() + kMaxBeginFixed);
    char *P = putHead(Start, H, Index, Ts, Dur);
    if (First) [[unlikely]] {
      *Start = '[';
      First = false;
    }
    if (H.Kind == TraceRecord::Kind::Counter) {
      // A counter event's args are its value alone.
      P = trace_detail::copy(P, ",\"args\":{\"value\":");
      P = trace_detail::writeDouble17(P, Value);
      *P++ = '}';
    }
    W.At = P;
    W.Args = 0;
  }

private:
  struct CategoryRow {
    std::string Text;
    /// 0 until a timeline record of the category gets its head.
    unsigned Tid = 0;
  };

  std::vector<CategoryRow> Categories;
  /// The tids given so far.
  unsigned Tids = 0;
  bool First = true;
  bool Closed = false;
};

/// A ZTB record's writer. The payload's length prefix and its arg count
/// come before bytes whose size is known only at end(): each gets one
/// byte, which end() fills — moving the bytes after it up in the rare
/// case (a payload of 128 bytes or more, 128 args or more) that its
/// varint needs more.
class ZtbRecordWriter : public TraceCursor {
public:
  using TraceCursor::TraceCursor;

  template <typename Int>
  [[gnu::always_inline]] void argInt(TraceKey Key, Int V) {
    char *P = key(Key, 1 + trace_detail::kMaxIntChars);
    const auto [Mag, Negative] = trace_detail::magnitude(V);
    const unsigned Digits = trace_detail::decimalLength(Mag);
    *P++ = static_cast<char>(Digits + Negative);
    if (Negative)
      *P++ = '-';
    P += Digits;
    trace_detail::writeDigits(P, Mag);
    At = P;
  }
  [[gnu::always_inline]] void argHex(TraceKey Key, uint64_t V) {
    char *P = key(Key, 1 + trace_detail::kMaxHexChars);
    char *End = trace_detail::writeHex(P + 1, V);
    *P = static_cast<char>(End - P - 1);
    At = End;
  }
  [[gnu::always_inline]] void argBool(TraceKey Key, bool V) {
    char *P = key(Key, 8);
    std::memcpy(P, V ? "\x04true\0\0\0" : "\x05" "false\0\0", 8);
    At = P + (V ? 5 : 6);
  }
  [[gnu::always_inline]] void argDouble(TraceKey Key, double V) {
    char *P = key(Key, 1 + trace_detail::kMaxDoubleChars);
    char *End = writeJsonNumber(P + 1, V);
    *P = static_cast<char>(End - P - 1);
    At = End;
  }
  [[gnu::always_inline]] void argValue(TraceKey Key,
                                       const TraceText &Encoded) {
    char *P = key(Key, ztb::kMaxVarintBytes + Encoded.size() +
                           TraceText::kSlack);
    At = Encoded.write(ztb::writeVarint(P, Encoded.size()));
  }
  void argText(TraceKey Key, std::string_view Raw) {
    char *P = key(Key, ztb::kMaxVarintBytes + Raw.size());
    At = trace_detail::copy(ztb::writeVarint(P, Raw.size()), Raw);
  }
  /// A TraceRecord's arg.
  void arg(std::string_view Key, std::string_view Value) {
    char *P = room(2 * ztb::kMaxVarintBytes + Key.size() + Value.size());
    ++Args;
    P = trace_detail::copy(ztb::writeVarint(P, Key.size()), Key);
    At = trace_detail::copy(ztb::writeVarint(P, Value.size()), Value);
  }
  [[gnu::always_inline]] void end() {
    if (Args < 0x80) {
      Data[Start + CountAt] = static_cast<char>(Args);
    } else {
      const TraceBuffer::Room R =
          widen(*Sink, {Data, At, Limit}, Start + CountAt, Args);
      Data = R.Data;
      At = R.At;
      Limit = R.Limit;
    }
    const size_t Length = At - (Data + Start) - 1;
    if (Length < 0x80) {
      Data[Start] = static_cast<char>(Length);
    } else {
      const TraceBuffer::Room R = widen(*Sink, {Data, At, Limit}, Start,
                                        Length);
      Data = R.Data;
      At = R.At;
      Limit = R.Limit;
    }
    endRecord();
  }

private:
  friend class ZtbTraceSink;

  /// Writes \p Key with room for \p ValueBytes after it; \returns where
  /// the value goes.
  [[gnu::always_inline]] char *key(TraceKey Key, size_t ValueBytes) {
    char *P = room(TraceKey::kMaxFramed + ValueBytes);
    ++Args;
    *P++ = static_cast<char>(Key.Name.size());
    return trace_detail::copy(P, Key.Name);
  }

  /// Writes \p V as a varint into the one byte at \p Slot (an offset from
  /// the buffer's start), moving the bytes after it, up to the cursor
  /// \p R.At, up to make room. \returns the moved buffer, cursor and
  /// limit.
  static TraceBuffer::Room widen(TraceSink &Sink, TraceBuffer::Room R,
                                 size_t Slot, uint64_t V);

  /// The open record's offset from the buffer's start, the args it has
  /// written, and the offset of their count's byte in the record.
  size_t Start = 0;
  uint64_t Args = 0;
  size_t CountAt = 0;
};

/// Binary backend: varint-encoded records behind a versioned provenance
/// preamble, with periodic frame markers (obs/Ztb.h). Strings are raw
/// bytes, so encodeText and encodeValue return their input.
class ZtbTraceSink final : public TraceSink {
public:
  using TraceSink::TraceSink;
  using Writer = ZtbRecordWriter;
  using Category = std::string_view;
  static constexpr bool CounterTakesArgs = true;

  TraceFormat format() const override { return TraceFormat::Ztb; }
  void header(
      const std::vector<std::pair<std::string, std::string>> &Meta) override;

  static std::string encodeText(std::string_view Raw) {
    return std::string(Raw);
  }
  static std::string encodeValue(std::string_view Raw) {
    return std::string(Raw);
  }
  static Category category(std::string_view Encoded) { return Encoded; }
  /// The name's bytes and the category's string; begin() writes the kind
  /// and the name's length (with its index) before them.
  static TraceHead head(TraceRecord::Kind K, std::string_view Name,
                        Category Cat);
  /// Writes the preamble first if no header() did.
  Writer writer() {
    if (!WrotePreamble) [[unlikely]]
      header({});
    return Writer(*this);
  }

  [[gnu::always_inline]] void begin(Writer &W, const TraceHead &H,
                                    TraceNameIndex Index, uint64_t Ts,
                                    uint64_t Dur = 0, double Value = 0) {
    if (RecordCount != 0 && RecordCount % ztb::RecordsPerFrame == 0)
        [[unlikely]]
      W.put({reinterpret_cast<const char *>(ztb::FrameMarker),
             sizeof(ztb::FrameMarker)});
    ++RecordCount;
    // The payload-length byte, the kind, the name, the category, ts, then
    // dur or value, and the arg-count byte.
    char *const Start =
        W.room(H.Text.size() + TraceNameIndex::kMaxSize + TraceText::kSlack +
               4 * ztb::kMaxVarintBytes + 16);
    char *P = Start + 1;
    *P++ = static_cast<char>(static_cast<unsigned>(H.Kind) + ztb::KindInstant);
    P = ztb::writeVarint(P, H.Split + Index.size());
    P = ztb::writeVarint(H.write(P, Index), Ts);
    if (H.Kind == TraceRecord::Kind::Span)
      P = ztb::writeVarint(P, Dur);
    else if (H.Kind == TraceRecord::Kind::Counter)
      P = ztb::writeDouble(P, Value);
    W.Start = Start - W.Data;
    W.CountAt = P - Start;
    W.At = P + 1;
    W.Args = 0;
  }

private:
  bool WrotePreamble = false;
  uint64_t RecordCount = 0;
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
