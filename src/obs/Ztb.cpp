//===- Ztb.cpp ------------------------------------------------------------===//

#include "obs/Ztb.h"

#include <cstring>

using namespace zam;

void ztb::appendVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out += static_cast<char>((V & 0x7F) | 0x80);
    V >>= 7;
  }
  Out += static_cast<char>(V);
}

void ztb::appendString(std::string &Out, const std::string &S) {
  appendVarint(Out, S.size());
  Out += S;
}

void ZtbTraceSink::ensurePreamble() {
  if (WrotePreamble)
    return;
  WrotePreamble = true;
  Scratch.clear();
  Scratch.append(ztb::Magic, sizeof(ztb::Magic));
  Scratch += static_cast<char>(ztb::Version);
  ztb::appendVarint(Scratch, 0);
  emit(Scratch);
}

void ZtbTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  if (WrotePreamble)
    return; // The preamble is the only place provenance can live.
  WrotePreamble = true;
  Scratch.clear();
  Scratch.append(ztb::Magic, sizeof(ztb::Magic));
  Scratch += static_cast<char>(ztb::Version);
  ztb::appendVarint(Scratch, Meta.size());
  for (const auto &[Key, Value] : Meta) {
    ztb::appendString(Scratch, Key);
    ztb::appendString(Scratch, Value);
  }
  emit(Scratch);
}

void ZtbTraceSink::record(const TraceRecord &R) {
  ensurePreamble();
  Scratch.clear();
  if (RecordCount != 0 && RecordCount % ztb::RecordsPerFrame == 0)
    Scratch.append(reinterpret_cast<const char *>(ztb::FrameMarker),
                   sizeof(ztb::FrameMarker));
  ++RecordCount;

  // Serialize the payload, then prefix its length.
  Payload.clear();
  switch (R.RecordKind) {
  case TraceRecord::Kind::Instant:
    Payload += static_cast<char>(ztb::KindInstant);
    break;
  case TraceRecord::Kind::Span:
    Payload += static_cast<char>(ztb::KindSpan);
    break;
  case TraceRecord::Kind::Counter:
    Payload += static_cast<char>(ztb::KindCounter);
    break;
  case TraceRecord::Kind::Meta:
    Payload += static_cast<char>(ztb::KindMeta);
    break;
  }
  ztb::appendString(Payload, R.Name);
  ztb::appendString(Payload, R.Category);
  ztb::appendVarint(Payload, R.Ts);
  if (R.RecordKind == TraceRecord::Kind::Span)
    ztb::appendVarint(Payload, R.Dur);
  if (R.RecordKind == TraceRecord::Kind::Counter) {
    uint64_t Bits = 0;
    static_assert(sizeof(Bits) == sizeof(R.Value));
    std::memcpy(&Bits, &R.Value, sizeof(Bits));
    for (int I = 0; I != 8; ++I)
      Payload += static_cast<char>((Bits >> (8 * I)) & 0xFF);
  }
  ztb::appendVarint(Payload, R.Args.size());
  for (const auto &[Key, Value] : R.Args) {
    ztb::appendString(Payload, Key);
    ztb::appendString(Payload, Value);
  }

  ztb::appendVarint(Scratch, Payload.size());
  Scratch += Payload;
  emit(Scratch);
}
