//===- streaming_test.cpp - Bounded-memory telemetry round-trips ----------===//
//
// Covers the streaming half of the observability story: byte-identity of
// the incremental (ByteSink) serialization path against the buffering
// one, JSON escaping round-trips through both text sinks and their
// readers (control characters, quotes, backslashes, non-ASCII), the ZTB
// binary format (header provenance, every record kind, frame-marker
// resynchronization after truncation and mid-stream corruption), the
// format-inference helpers, the deterministic log-linear histogram
// sketches, the online-vs-replay bit-identity of the leakage accountant
// over an on-disk trace, and the exporter's event runs — written through
// one open writer across 64 KiB flushes and ZTB frame markers — read back
// alike in every format.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/RandomProgram.h"
#include "obs/CostLedger.h"
#include "obs/Histogram.h"
#include "obs/Json.h"
#include "obs/LeakAudit.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/TraceReader.h"
#include "obs/TraceSink.h"
#include "sem/FullInterpreter.h"
#include "types/LabelInference.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"

// GCC 12 emits a bogus -Wrestrict for std::string assignment in the
// unrolled record-construction loops below (GCC PR 105329).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

using namespace zam;
using zam::test::lh;

namespace {

/// Wraps \p Bytes in a rewound stdio stream a reader can own.
std::FILE *streamOver(const std::string &Bytes) {
  std::FILE *F = std::tmpfile();
  EXPECT_NE(F, nullptr);
  EXPECT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::rewind(F);
  return F;
}

/// A reader of format \p F over \p Bytes.
std::unique_ptr<TraceReader> readerOver(TraceFormat F,
                                        const std::string &Bytes) {
  std::FILE *Stream = streamOver(Bytes);
  switch (F) {
  case TraceFormat::Jsonl:
    return std::make_unique<JsonlTraceReader>(Stream, true);
  case TraceFormat::Chrome:
    return std::make_unique<ChromeTraceReader>(Stream, true);
  case TraceFormat::Ztb:
    break;
  }
  return std::make_unique<ZtbTraceReader>(Stream, true);
}

/// Drains \p Reader into a vector.
std::vector<TraceRecord> drain(TraceReader &Reader) {
  std::vector<TraceRecord> Out;
  TraceRecord R;
  while (Reader.next(R))
    Out.push_back(R);
  return Out;
}

/// A record whose every string field needs escaping: quotes, backslashes,
/// control characters and multi-byte UTF-8.
TraceRecord nastyRecord() {
  TraceRecord R;
  R.RecordKind = TraceRecord::Kind::Instant;
  R.Name = "quote\"back\\slash\nnewline\ttab\x01"
           "ctrl";
  R.Category = "caf\xc3\xa9"; // café
  R.Ts = 7;
  R.Args.push_back(TraceArg::text("key \"k\"", "va\\l\x02ue"));
  R.Args.push_back(TraceArg::text("num", "42"));
  R.Args.push_back(TraceArg::text("neg", "-1.5"));
  R.Args.push_back(TraceArg::text("utf8", "\xe2\x96\x88 block"));
  return R;
}

void expectSameRecord(const TraceRecord &A, const TraceRecord &B) {
  EXPECT_EQ(static_cast<int>(A.RecordKind), static_cast<int>(B.RecordKind));
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.Category, B.Category);
  EXPECT_EQ(A.Ts, B.Ts);
  EXPECT_EQ(A.Dur, B.Dur);
  EXPECT_EQ(A.Args, B.Args);
}

void expectSameEntries(const MetricsRegistry &A, const MetricsRegistry &B) {
  const auto &EA = A.entries();
  const auto &EB = B.entries();
  ASSERT_EQ(EA.size(), EB.size());
  for (size_t I = 0; I != EA.size(); ++I) {
    EXPECT_EQ(EA[I].Name, EB[I].Name);
    EXPECT_EQ(EA[I].IsGauge, EB[I].IsGauge);
    EXPECT_EQ(EA[I].Counter, EB[I].Counter);
    EXPECT_EQ(EA[I].Gauge, EB[I].Gauge); // Exact: same sums, same order.
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Incremental emission: streaming sinks produce the buffered bytes.
//===----------------------------------------------------------------------===//

TEST(StreamingSinks, ExternalByteSinkMatchesBufferedBytes) {
  for (TraceFormat F :
       {TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Ztb}) {
    const std::vector<std::pair<std::string, std::string>> Meta = {
        {"tool", "test"}, {"threads", "8"}};
    TraceRecord Span;
    Span.RecordKind = TraceRecord::Kind::Span;
    Span.Name = "mitigate#0";
    Span.Category = "mit";
    Span.Ts = 10;
    Span.Dur = 1024;
    Span.Args.push_back(TraceArg::u64("padded", 187));

    std::unique_ptr<TraceSink> Buffered = makeTraceSink(F);
    Buffered->header(Meta);
    Buffered->record(nastyRecord());
    Buffered->record(Span);
    const std::string Want = Buffered->finish();

    StringByteSink Captured;
    std::unique_ptr<TraceSink> Streamed = makeTraceSink(F, Captured);
    Streamed->header(Meta);
    Streamed->record(nastyRecord());
    Streamed->record(Span);
    Streamed->close();
    EXPECT_EQ(Captured.str(), Want) << traceFormatName(F);
    EXPECT_TRUE(Streamed->ok());
  }
}

//===----------------------------------------------------------------------===//
// JSON escaping round-trips through both text sinks and their readers.
//===----------------------------------------------------------------------===//

TEST(StreamingSinks, JsonlEscapingRoundTrips) {
  auto Sink = makeTraceSink(TraceFormat::Jsonl);
  Sink->record(nastyRecord());
  const std::string Bytes = Sink->finish();
  // Every line must be a valid JSON object (escaping produced legal JSON).
  EXPECT_NE(Bytes.find("\\u0001"), std::string::npos);
  EXPECT_TRUE(JsonValue::parse(Bytes.substr(0, Bytes.find('\n'))));

  JsonlTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
  std::vector<TraceRecord> Got = drain(Reader);
  EXPECT_TRUE(Reader.ok()) << Reader.error();
  ASSERT_EQ(Got.size(), 1u);
  expectSameRecord(Got[0], nastyRecord());
}

TEST(StreamingSinks, ChromeEscapingRoundTrips) {
  auto Sink = makeTraceSink(TraceFormat::Chrome);
  Sink->record(nastyRecord());
  const std::string Bytes = Sink->finish();
  EXPECT_TRUE(JsonValue::parse(Bytes)); // The whole array is legal JSON.

  ChromeTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
  std::vector<TraceRecord> Got = drain(Reader);
  EXPECT_TRUE(Reader.ok()) << Reader.error();
  ASSERT_EQ(Got.size(), 1u);
  expectSameRecord(Got[0], nastyRecord());
}

/// The round-trips above cannot catch a byte difference that both the sink
/// and the reader accept, so these pin the exact escaped bytes: `\"`, `\\`,
/// `\n` and `\t` get short escapes, every other control char a lower-case
/// `\u00xx`, and everything else — 0x7f and multi-byte UTF-8 included —
/// passes through unchanged.
TEST(StreamingSinks, EscapingBytesAreExact) {
  std::string Controls;
  for (char C = 0x01; C != 0x20; ++C)
    Controls += C;
  const std::pair<std::string, std::string> Cases[] = {
      {"", R"("")"},
      {"plain text", R"("plain text")"},
      {"\"first", R"("\"first")"},
      {"last\\", R"("last\\")"},
      {R"(""\\"\)", R"("\"\"\\\\\"\\")"},
      {"a\nb\tc", R"("a\nb\tc")"},
      {Controls, R"("\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008)"
                 R"(\t\n\u000b\u000c\u000d\u000e\u000f\u0010\u0011\u0012)"
                 R"(\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a)"
                 R"(\u001b\u001c\u001d\u001e\u001f")"},
      {"del\x7f", "\"del\x7f\""},
      {"caf\xc3\xa9 \xe2\x96\x88", "\"caf\xc3\xa9 \xe2\x96\x88\""},
  };
  for (const auto &[Raw, Quoted] : Cases) {
    TraceRecord R;
    R.Name = Raw;
    R.Category = "c";
    R.Args.push_back(TraceArg::text("k", Raw));

    JsonlTraceSink Jsonl;
    Jsonl.record(R);
    EXPECT_EQ(Jsonl.finish(), "{\"kind\":\"instant\",\"name\":" + Quoted +
                                  ",\"cat\":\"c\",\"ts\":0,\"args\":{\"k\":" +
                                  Quoted + "}}\n");

    ChromeTraceSink Chrome;
    Chrome.record(R);
    EXPECT_EQ(Chrome.finish(),
              "[\n{\"name\":" + Quoted +
                  ",\"cat\":\"c\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
                  "\"tid\":1,\"ts\":0,\"args\":{\"k\":" +
                  Quoted + "}}\n]\n");
  }
}

/// The typed encoder prints integers itself, two digits at a time; every
/// digit count and both ends of each integer type must read as
/// std::to_string does, in the text formats and in ZTB.
TEST(StreamingSinks, TypedIntArgsPrintEveryDigitCount) {
  std::vector<int64_t> Signed = {INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX};
  std::vector<uint64_t> Unsigned = {UINT64_MAX, UINT64_MAX - 1};
  for (uint64_t P = 1; P <= UINT64_MAX / 10; P *= 10)
    for (uint64_t V : {P - 1, P, P + 1, 10 * P - 1}) {
      Unsigned.push_back(V);
      if (V <= INT64_MAX)
        Signed.push_back(-static_cast<int64_t>(V));
    }
  std::string Want;
  for (int64_t V : Signed)
    Want += std::to_string(V) + ",";
  for (uint64_t V : Unsigned)
    Want += std::to_string(V) + ",";

  JsonlTraceSink Jsonl;
  ZtbTraceSink Ztb;
  const TraceHead JsonlHead = Jsonl.head(TraceRecord::Kind::Instant, "n", "c");
  const TraceHead ZtbHead = Ztb.head(TraceRecord::Kind::Instant, "n", "c");
  std::string Got;
  auto check = [&](const auto &V) {
    auto J = Jsonl.writer();
    Jsonl.begin(J, JsonlHead, {}, 0);
    J.argInt("v", V);
    J.end();
    J.commit();
    auto Z = Ztb.writer();
    Ztb.begin(Z, ZtbHead, {}, 0);
    Z.argInt("v", V);
    Z.end();
    Z.commit();
  };
  for (int64_t V : Signed)
    check(V);
  for (uint64_t V : Unsigned)
    check(V);

  std::istringstream Lines(Jsonl.finish());
  for (std::string Line; std::getline(Lines, Line);) {
    const size_t At = Line.find("\"v\":") + 4;
    Got += Line.substr(At, Line.size() - At - 2) + ",";
  }
  EXPECT_EQ(Got, Want);

  ZtbTraceReader Reader(streamOver(Ztb.finish()), /*TakeOwnership=*/true);
  Got.clear();
  for (const TraceRecord &R : drain(Reader))
    if (!R.Args.empty())
      Got += R.Args[0].str() + ",";
  EXPECT_TRUE(Reader.ok()) << Reader.error();
  EXPECT_EQ(Got, Want);
}

//===----------------------------------------------------------------------===//
// ZTB: header provenance, every record kind, exact arg fidelity.
//===----------------------------------------------------------------------===//

TEST(Ztb, RoundTripsHeaderAndEveryRecordKind) {
  auto Sink = makeTraceSink(TraceFormat::Ztb);
  Sink->header({{"tool", "zam"}, {"git", "abc123"}});

  TraceRecord Span;
  Span.RecordKind = TraceRecord::Kind::Span;
  Span.Name = "mitigate#3";
  Span.Category = "mit";
  Span.Ts = 1ull << 40; // Multi-byte varints.
  Span.Dur = 300;
  Span.Args.push_back(TraceArg::boolean("mispredicted", true));

  TraceRecord Counter;
  Counter.RecordKind = TraceRecord::Kind::Counter;
  Counter.Name = "bits";
  Counter.Category = "leak";
  Counter.Ts = 5;
  Counter.Value = 2.321928094887362; // Exact 8-byte payload round-trip.

  TraceRecord Snapshot;
  Snapshot.RecordKind = TraceRecord::Kind::Meta;
  Snapshot.Name = "snapshot";
  Snapshot.Category = "obs";
  Snapshot.Ts = 99;
  Snapshot.Args.push_back(TraceArg::u64("windows", 12));

  Sink->record(nastyRecord());
  Sink->record(Span);
  Sink->record(Counter);
  Sink->record(Snapshot);
  const std::string Bytes = Sink->finish();

  ZtbTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
  std::vector<TraceRecord> Got = drain(Reader);
  EXPECT_TRUE(Reader.ok()) << Reader.error();
  ASSERT_EQ(Got.size(), 5u);
  // The provenance header surfaces as a leading nameless meta record.
  EXPECT_EQ(static_cast<int>(Got[0].RecordKind),
            static_cast<int>(TraceRecord::Kind::Meta));
  EXPECT_TRUE(Got[0].Name.empty());
  ASSERT_EQ(Got[0].Args.size(), 2u);
  EXPECT_EQ(Got[0].Args[0].Key, "tool");
  EXPECT_EQ(Got[0].Args[1].Text, "abc123");
  expectSameRecord(Got[1], nastyRecord());
  expectSameRecord(Got[2], Span);
  EXPECT_EQ(Got[3].Value, Counter.Value);
  expectSameRecord(Got[4], Snapshot);
}

/// A record's arg count and payload length take one byte each until the
/// record ends; 200 args and a payload of several KiB need wider varints,
/// which move the bytes after them. The records around it stay framed.
TEST(Ztb, WideArgCountAndPayloadLengthRoundTrip) {
  TraceRecord Wide;
  Wide.RecordKind = TraceRecord::Kind::Span;
  Wide.Name = std::string(5000, 'w');
  Wide.Category = "c";
  Wide.Ts = 7;
  Wide.Dur = 3;
  for (unsigned I = 0; I != 200; ++I)
    Wide.Args.push_back(
        TraceArg::text("k" + std::to_string(I), std::to_string(I * I)));
  TraceRecord Small;
  Small.Name = "s";
  Small.Category = "c";
  Small.Ts = 8;
  Small.Args.push_back(TraceArg::text("v", "1"));

  auto Sink = makeTraceSink(TraceFormat::Ztb);
  Sink->record(Small);
  Sink->record(Wide);
  Sink->record(Small);
  ZtbTraceReader Reader(streamOver(Sink->finish()), /*TakeOwnership=*/true);
  std::vector<TraceRecord> Got = drain(Reader);
  EXPECT_TRUE(Reader.ok()) << Reader.error();
  ASSERT_EQ(Got.size(), 3u);
  expectSameRecord(Got[0], Small);
  expectSameRecord(Got[1], Wide);
  expectSameRecord(Got[2], Small);
}

TEST(Ztb, TruncatedFileYieldsPrefixAndReportsError) {
  auto Sink = makeTraceSink(TraceFormat::Ztb);
  Sink->header({{"tool", "test"}});
  for (unsigned I = 0; I != 100; ++I) {
    TraceRecord R;
    R.RecordKind = TraceRecord::Kind::Instant;
    char Name[16];
    std::snprintf(Name, sizeof(Name), "r%u", I);
    R.Name = Name;
    R.Category = "t";
    R.Ts = I;
    Sink->record(R);
  }
  const std::string Bytes = Sink->finish();

  ZtbTraceReader Reader(streamOver(Bytes.substr(0, Bytes.size() * 3 / 4)),
                        /*TakeOwnership=*/true);
  std::vector<TraceRecord> Got = drain(Reader);
  EXPECT_FALSE(Reader.ok()); // Truncation is reported...
  EXPECT_GT(Got.size(), 50u); // ...but the intact prefix still decodes.
  EXPECT_LT(Got.size(), 101u);
  EXPECT_EQ(Got[1].Name, "r0");
}

TEST(Ztb, CorruptionResynchronizesAtFrameMarker) {
  // Enough records to cross at least one frame boundary (every 4096).
  const unsigned Total = 9000;
  auto Sink = makeTraceSink(TraceFormat::Ztb);
  Sink->header({{"tool", "test"}});
  for (unsigned I = 0; I != Total; ++I) {
    TraceRecord R;
    R.RecordKind = TraceRecord::Kind::Instant;
    char Name[16];
    std::snprintf(Name, sizeof(Name), "r%u", I);
    R.Name = Name;
    R.Category = "t";
    R.Ts = I;
    Sink->record(R);
  }
  std::string Bytes = Sink->finish();

  // Trash a run of bytes inside the first frame.
  const size_t At = Bytes.size() / 4;
  for (size_t I = At; I != At + 16; ++I)
    Bytes[I] = static_cast<char>(Bytes[I] ^ 0x5A);

  ZtbTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
  std::vector<TraceRecord> Got = drain(Reader);
  EXPECT_FALSE(Reader.ok()); // The corruption is reported...
  ASSERT_FALSE(Got.empty());
  // ...and the reader resynchronized: everything after the next frame
  // marker decodes, so the stream's tail is intact.
  EXPECT_EQ(Got.back().Name, std::string("r") += std::to_string(Total - 1));
  EXPECT_GT(Got.size(), static_cast<size_t>(Total - 4096));
  EXPECT_LT(Got.size(), static_cast<size_t>(Total + 1));
}

TEST(Ztb, BadMagicFailsWithCleanError) {
  ZtbTraceReader Reader(streamOver("NOPE leftover bytes"),
                        /*TakeOwnership=*/true);
  TraceRecord R;
  EXPECT_FALSE(Reader.next(R));
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("bad magic"), std::string::npos)
      << Reader.error();
}

TEST(Ztb, TruncatedPreambleReportsTruncationNotVersionMismatch) {
  // EOF right after the magic: must read as a truncation, not as a bogus
  // "unsupported ZTB version -1".
  {
    ZtbTraceReader Reader(streamOver("ZTB1"), /*TakeOwnership=*/true);
    TraceRecord R;
    EXPECT_FALSE(Reader.next(R));
    EXPECT_FALSE(Reader.ok());
    EXPECT_NE(Reader.error().find("truncated ZTB preamble"),
              std::string::npos)
        << Reader.error();
    EXPECT_EQ(Reader.error().find("unsupported"), std::string::npos)
        << Reader.error();
  }
  // EOF inside the header pair-count varint (continuation bit set, then
  // nothing): a truncated varint, not corrupt framing.
  {
    std::string Bytes("ZTB1");
    Bytes += '\x01'; // version
    Bytes += '\x80'; // varint continuation byte with no successor
    ZtbTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
    TraceRecord R;
    EXPECT_FALSE(Reader.next(R));
    EXPECT_FALSE(Reader.ok());
    EXPECT_NE(Reader.error().find("truncated ZTB header"), std::string::npos)
        << Reader.error();
  }
  // A header string length past the cap: reported as malformed before any
  // multi-megabyte preallocation can happen.
  {
    std::string Bytes("ZTB1");
    Bytes += '\x01';                // version
    Bytes += '\x01';                // one header pair
    Bytes += "\x80\x80\x08";        // KeyLen varint = 1 << 17 (over the cap)
    ZtbTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
    TraceRecord R;
    EXPECT_FALSE(Reader.next(R));
    EXPECT_FALSE(Reader.ok());
    EXPECT_NE(Reader.error().find("implausible string length"),
              std::string::npos)
        << Reader.error();
  }
}

TEST(Ztb, OverlongRecordLengthReportsImplausibleLength) {
  // A valid empty preamble followed by a record length of 1 << 25 (past
  // kMaxRecordBytes = 1 << 24) and no frame marker to resynchronize at.
  std::string Bytes("ZTB1");
  Bytes += '\x01';                   // version
  Bytes += '\x00';                   // zero header pairs
  Bytes.append("\x80\x80\x80\x10", 4); // record length varint = 1 << 25
  ZtbTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
  TraceRecord R;
  EXPECT_FALSE(Reader.next(R));
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("implausible record length"),
            std::string::npos)
      << Reader.error();
}

//===----------------------------------------------------------------------===//
// Format inference and reader sniffing.
//===----------------------------------------------------------------------===//

TEST(TraceFormats, ExtensionInference) {
  EXPECT_EQ(inferTraceFormat("out.jsonl"), TraceFormat::Jsonl);
  EXPECT_EQ(inferTraceFormat("dir/run.trace.json"), TraceFormat::Chrome);
  EXPECT_EQ(inferTraceFormat("scale.ztb"), TraceFormat::Ztb);
  EXPECT_FALSE(inferTraceFormat("trace.txt").has_value());
  EXPECT_FALSE(inferTraceFormat("noextension").has_value());
  EXPECT_EQ(parseTraceFormat("ztb"), TraceFormat::Ztb);
  EXPECT_FALSE(parseTraceFormat("binary").has_value());
}

TEST(TraceFormats, OpenTraceReaderSniffsAllThreeFormats) {
  TraceRecord R;
  R.RecordKind = TraceRecord::Kind::Instant;
  R.Name = "x";
  R.Category = "t";
  R.Ts = 1;
  for (TraceFormat F :
       {TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Ztb}) {
    auto Sink = makeTraceSink(F);
    Sink->record(R);
    const std::string Path = testing::TempDir() + "/sniff_" +
                             std::string(traceFormatName(F)) + ".bin";
    std::ofstream(Path, std::ios::binary) << Sink->finish();
    std::string Err;
    std::unique_ptr<TraceReader> Reader = openTraceReader(Path, Err);
    ASSERT_NE(Reader, nullptr) << Err;
    std::vector<TraceRecord> Got = drain(*Reader);
    EXPECT_TRUE(Reader->ok()) << Reader->error();
    ASSERT_EQ(Got.size(), 1u) << traceFormatName(F);
    expectSameRecord(Got[0], R);
  }
}

//===----------------------------------------------------------------------===//
// LogLinearHistogram: the deterministic dist.* sketch.
//===----------------------------------------------------------------------===//

TEST(Histogram, SmallValuesAreExact) {
  LogLinearHistogram H;
  for (uint64_t V = 1; V <= 10; ++V)
    H.add(V);
  EXPECT_EQ(H.total(), 10u);
  EXPECT_EQ(H.min(), 1u);
  EXPECT_EQ(H.max(), 10u);
  // Values below 2^SubBits live in unit buckets: quantiles are exact.
  EXPECT_EQ(H.quantile(0.5), 5u);
  EXPECT_EQ(H.quantile(0.9), 9u);
  EXPECT_EQ(H.quantile(1.0), 10u);
}

TEST(Histogram, QuantilesClampToObservedExtrema) {
  LogLinearHistogram H;
  H.add(1000000);
  EXPECT_EQ(H.quantile(0.5), 1000000u);
  EXPECT_EQ(H.quantile(0.999), 1000000u);
  EXPECT_EQ(H.min(), 1000000u);
  EXPECT_EQ(H.max(), 1000000u);
}

TEST(Histogram, BucketsBoundRelativeError) {
  for (uint64_t V : {1ull, 31ull, 32ull, 1000ull, 123456789ull, 1ull << 50}) {
    const unsigned Idx = LogLinearHistogram::bucketIndex(V);
    const uint64_t Upper = LogLinearHistogram::bucketUpper(Idx);
    EXPECT_GE(Upper, V);
    // The representative overshoots by at most 2^-SubBits relative.
    EXPECT_LE(static_cast<double>(Upper - V),
              static_cast<double>(V) / 32.0 + 1.0);
  }
}

TEST(Histogram, MergeIsOrderFree) {
  std::vector<uint64_t> Values;
  for (uint64_t I = 0; I != 500; ++I)
    Values.push_back((I * 2654435761u) % 1000003);

  LogLinearHistogram Forward, Backward, Merged;
  for (size_t I = 0; I != Values.size(); ++I)
    Forward.add(Values[I]);
  for (size_t I = Values.size(); I != 0; --I)
    Backward.add(Values[I - 1]);
  LogLinearHistogram Half1, Half2;
  for (size_t I = 0; I != Values.size(); ++I)
    (I % 2 ? Half1 : Half2).add(Values[I]);
  Merged.merge(Half1);
  Merged.merge(Half2);

  MetricsRegistry RF, RB, RM;
  Forward.exportMetrics(RF, "v");
  Backward.exportMetrics(RB, "v");
  Merged.exportMetrics(RM, "v");
  expectSameEntries(RF, RB);
  expectSameEntries(RF, RM);
}

TEST(Histogram, ExportShapeIsFixedAndInteger) {
  LogLinearHistogram H;
  H.add(100, 3);
  MetricsRegistry Reg;
  H.exportMetrics(Reg, "end_to_end");
  const char *Want[] = {
      "dist.end_to_end.count", "dist.end_to_end.min",
      "dist.end_to_end.max",   "dist.end_to_end.p50",
      "dist.end_to_end.p90",   "dist.end_to_end.p99",
      "dist.end_to_end.p999"};
  const auto &Entries = Reg.entries();
  ASSERT_EQ(Entries.size(), 7u);
  for (size_t I = 0; I != Entries.size(); ++I) {
    EXPECT_EQ(Entries[I].Name, Want[I]);
    EXPECT_FALSE(Entries[I].IsGauge); // Integer counters: byte-stable.
  }
  EXPECT_EQ(Reg.counterValue("dist.end_to_end.count"), 3u);
}

//===----------------------------------------------------------------------===//
// LeakAudit: the on-disk replay reproduces the online account bit for bit.
//===----------------------------------------------------------------------===//

TEST(LeakAuditReplay, ZtbReplayMatchesOnlineAccountBitForBit) {
  const TwoPointLattice &Lat = lh();
  Program P = test::parseOrDie("var h : H;\nvar l : L;\n"
                               "mitigate (64, H) { sleep(h) @[H,H] };\n"
                               "l := 1",
                               Lat);
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);
  RunResult RR = runFull(P, *Env, [](Memory &M) { M.store("h", 700); });

  LeakAudit Online(Lat);
  Online.ingest(RR.T);

  // Round-trip through every on-disk format; each replay must agree.
  for (TraceFormat F :
       {TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Ztb}) {
    auto Sink = makeTraceSink(F);
    exportTrace(*Sink, RR.T, Lat);
    const std::string Bytes = Sink->finish();

    std::unique_ptr<TraceReader> Reader = readerOver(F, Bytes);

    LeakAudit Replayed(Lat);
    Replayed.setRetainWindows(false); // The million-window configuration.
    std::string Err;
    ASSERT_TRUE(Replayed.replay(*Reader, Err)) << Err;
    EXPECT_TRUE(Replayed.windows().empty());
    EXPECT_EQ(Replayed.countedWindows(), Online.countedWindows());
    EXPECT_EQ(Replayed.totalBitsBound(), Online.totalBitsBound());

    MetricsRegistry A, B;
    Online.exportMetrics(A);
    Replayed.exportMetrics(B);
    expectSameEntries(A, B);
  }
}

//===----------------------------------------------------------------------===//
// Snapshot rows: off by default, deterministic when enabled.
//===----------------------------------------------------------------------===//

TEST(Snapshots, DisabledByDefaultAndEmittedEveryNthWindow) {
  const TwoPointLattice &Lat = lh();
  Program P = test::parseOrDie("var h : H;\nvar l : L;\n"
                               "mitigate (64, H) { sleep(h) @[H,H] };\n"
                               "mitigate (64, H) { sleep(h) @[H,H] };\n"
                               "l := 1",
                               Lat);
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, Lat);
  RunResult RR = runFull(P, *Env, [](Memory &M) { M.store("h", 30); });

  auto Plain = makeTraceSink(TraceFormat::Jsonl);
  exportTrace(*Plain, RR.T, Lat);
  EXPECT_EQ(Plain->finish().find("snapshot"), std::string::npos);

  auto WithSnaps = makeTraceSink(TraceFormat::Jsonl);
  TraceExportOptions Opts;
  Opts.SnapshotEveryWindows = 1;
  exportTrace(*WithSnaps, RR.T, Lat, Opts);
  const std::string Bytes = WithSnaps->finish();

  JsonlTraceReader Reader(streamOver(Bytes), /*TakeOwnership=*/true);
  unsigned Snapshots = 0;
  TraceRecord R;
  uint64_t LastWindows = 0;
  while (Reader.next(R))
    if (R.RecordKind == TraceRecord::Kind::Meta && R.Name == "snapshot") {
      ++Snapshots;
      LastWindows = R.get<uint64_t>("windows").value_or(LastWindows);
    }
  EXPECT_TRUE(Reader.ok()) << Reader.error();
  EXPECT_EQ(Snapshots, 2u); // One per counted window at N=1.
  EXPECT_EQ(LastWindows, 2u);
}

//===----------------------------------------------------------------------===//
// Event runs: the exporter writes each run of events through one writer.
//===----------------------------------------------------------------------===//

namespace {

/// Keeps the bytes and counts the writes.
class CountingByteSink final : public ByteSink {
public:
  void write(const char *Data, size_t Size) override {
    Bytes.append(Data, Size);
    ++Writes;
  }

  std::string Bytes;
  size_t Writes = 0;
};

} // namespace

/// One run of 6,000 visible events — an array store and a low assignment
/// per iteration, with a high one that the adversary projection drops
/// between them — and no other record: in every format it leaves in
/// several 64 KiB chunks, passes ZTB's frame marker before its 4,097th
/// record, reads back as the events it was written from, and has the bytes
/// that writing each record on its own gives.
TEST(EventRuns, OneRunCrossesChunksAndAFrameMarker) {
  Program P = test::parseOrDie("var a : L[8];\n"
                               "var i : L;\n"
                               "var h : H;\n"
                               "while (i < 3000) do {\n"
                               "  a[i] := i * 3;\n"
                               "  h := h + i;\n"
                               "  i := i + 1\n"
                               "}",
                               lh());
  inferTimingLabels(P);
  auto Env = createMachineEnv(HwKind::Partitioned, lh());
  const RunResult R = runFull(P, *Env);
  ASSERT_EQ(R.T.Events.size(), 9000u);
  ASSERT_TRUE(R.T.Misses.empty());
  ASSERT_TRUE(R.T.Mitigations.empty());

  TraceExportOptions Opts;
  Opts.Adversary = test::low();
  std::vector<TraceRecord> Want;
  for (const AssignEvent &E : R.T.Events) {
    if (E.VarLabel != test::low())
      continue;
    TraceRecord &W = Want.emplace_back();
    W.Name = "assign " + R.T.varName(E);
    if (E.IsArrayStore)
      W.Name += "[" + std::to_string(E.ElemIndex) + "]";
    W.Category = "interp";
    W.Ts = E.Time;
    W.Args = {TraceArg::i64("value", E.Value), TraceArg::text("label", "L")};
  }
  ASSERT_EQ(Want.size(), 6000u);
  ASSERT_GT(Want.size(), ztb::RecordsPerFrame);

  for (TraceFormat F :
       {TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Ztb}) {
    SCOPED_TRACE(traceFormatName(F));
    CountingByteSink Out;
    std::unique_ptr<TraceSink> Sink = makeTraceSink(F, Out);
    EXPECT_EQ(exportTrace(*Sink, R.T, lh(), Opts), Want.size());
    Sink->close();
    EXPECT_GE(Out.Writes, Out.Bytes.size() / (64 * 1024));
    EXPECT_GE(Out.Writes, 3u);
    if (F == TraceFormat::Ztb) {
      const std::string Marker(
          reinterpret_cast<const char *>(ztb::FrameMarker),
          sizeof(ztb::FrameMarker));
      EXPECT_NE(Out.Bytes.find(Marker), std::string::npos);
    }

    std::unique_ptr<TraceReader> Reader = readerOver(F, Out.Bytes);
    const std::vector<TraceRecord> Got = drain(*Reader);
    EXPECT_TRUE(Reader->ok()) << Reader->error();
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I != Got.size(); ++I)
      expectSameRecord(Got[I], Want[I]);

    std::unique_ptr<TraceSink> OneByOne = makeTraceSink(F);
    for (const TraceRecord &Rec : Got)
      OneByOne->record(Rec);
    EXPECT_TRUE(OneByOne->finish() == Out.Bytes);
  }
}

/// Random programs on every design, exported with and without an
/// adversary projection and an embedded ledger: the three formats read
/// back to the same record sequence, as long as the exporter counted.
TEST(EventRuns, RandomProgramsReadBackAlikeInEveryFormat) {
  Rng Gen(0x5EC0DE);
  unsigned Programs = 0;
  for (HwKind Kind : test::allHwKinds()) {
    for (unsigned Trial = 0; Trial != 6; ++Trial) {
      std::optional<Program> P = randomWellTypedProgram(lh(), Gen);
      if (!P)
        continue;
      ++Programs;
      CostLedger Ledger;
      InterpreterOptions IOpts;
      IOpts.Provenance = &Ledger;
      IOpts.RecordMisses = true;
      auto Env = createMachineEnv(Kind, lh());
      const RunResult R = runFull(
          *P, *Env, [&Gen](Memory &M) { randomizeMemoryValues(M, Gen); },
          IOpts);
      for (const bool WithAdversary : {false, true}) {
        for (const bool WithLedger : {false, true}) {
          SCOPED_TRACE(std::string(hwKindName(Kind)) + " trial " +
                       std::to_string(Trial) +
                       (WithAdversary ? " adversary L" : "") +
                       (WithLedger ? " ledger" : ""));
          TraceExportOptions Opts;
          if (WithAdversary)
            Opts.Adversary = test::low();
          if (WithLedger)
            Opts.Ledger = &Ledger;
          std::vector<TraceRecord> First;
          for (TraceFormat F :
               {TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Ztb}) {
            std::unique_ptr<TraceSink> Sink = makeTraceSink(F);
            const size_t Emitted = exportTrace(*Sink, R.T, lh(), Opts);
            std::unique_ptr<TraceReader> Reader =
                readerOver(F, Sink->finish());
            const std::vector<TraceRecord> Got = drain(*Reader);
            EXPECT_TRUE(Reader->ok()) << Reader->error();
            ASSERT_EQ(Got.size(), Emitted) << traceFormatName(F);
            if (F == TraceFormat::Jsonl) {
              First = Got;
              continue;
            }
            for (size_t I = 0; I != Got.size(); ++I)
              expectSameRecord(Got[I], First[I]);
          }
        }
      }
    }
  }
  EXPECT_GE(Programs, 12u) << "random generator produced too few programs";
}
