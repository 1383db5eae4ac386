//===- Ztb.cpp ------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/TraceSink.h"

#include <cstring>

using namespace zam;

void ZtbTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  if (WrotePreamble)
    return; // The preamble is the only place provenance can live.
  WrotePreamble = true;
  Out.append(ztb::Magic, ztb::Magic + sizeof(ztb::Magic));
  Out += static_cast<char>(ztb::Version);
  ztb::appendVarint(Out, Meta.size());
  for (const auto &[Key, Value] : Meta) {
    ztb::appendString(Out, Key);
    ztb::appendString(Out, Value);
  }
}

void ZtbTraceSink::record(const TraceRecord &R) {
  begin(R.RecordKind, R.Name, {}, R.Category, R.Ts, R.Dur);
  if (R.RecordKind == TraceRecord::Kind::Counter)
    counter(R.Value);
  for (const auto &[Key, Value] : R.Args)
    argValue(Key, Value);
  end();
}

void ZtbTraceSink::counter(double V) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  for (int I = 0; I != 8; ++I)
    Payload += static_cast<char>((Bits >> (8 * I)) & 0xFF);
}

void ZtbTraceSink::argDouble(std::string_view Key, double V) {
  argValue(Key, jsonNumberString(V));
}

void ZtbTraceSink::end() {
  if (RecordCount != 0 && RecordCount % ztb::RecordsPerFrame == 0) {
    const char *Marker = reinterpret_cast<const char *>(ztb::FrameMarker);
    Out.append(Marker, Marker + sizeof(ztb::FrameMarker));
  }
  ++RecordCount;
  // The payload: kind through ts/dur/value, then the arg count and args.
  ztb::appendVarint(Payload, Args);
  ztb::appendVarint(Out, Payload.size() + ArgBytes.size());
  Out += Payload;
  Out += ArgBytes;
  endRecord();
}
