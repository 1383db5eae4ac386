//===- Ztb.cpp ------------------------------------------------------------===//

#include "obs/TraceSink.h"

using namespace zam;

void ZtbTraceSink::header(
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  if (WrotePreamble)
    return; // The preamble is the only place provenance can live.
  WrotePreamble = true;
  TraceCursor W(*this);
  W.put({ztb::Magic, sizeof(ztb::Magic)});
  W.put({reinterpret_cast<const char *>(&ztb::Version), 1});
  W.At = ztb::writeVarint(W.room(ztb::kMaxVarintBytes), Meta.size());
  auto putString = [&W](std::string_view S) {
    char *P = W.room(ztb::kMaxVarintBytes + S.size());
    W.At = trace_detail::copy(ztb::writeVarint(P, S.size()), S);
  };
  for (const auto &[Key, Value] : Meta) {
    putString(Key);
    putString(Value);
  }
  W.commit();
}

void ZtbTraceSink::frameMarker() {
  TraceCursor W(*this);
  W.put({reinterpret_cast<const char *>(ztb::FrameMarker),
         sizeof(ztb::FrameMarker)});
  W.commit();
}

TraceBuffer::Room ZtbRecordWriter::widen(TraceSink &Sink,
                                         TraceBuffer::Room R, size_t Slot,
                                         uint64_t V) {
  char Varint[ztb::kMaxVarintBytes];
  const size_t Len = ztb::writeVarint(Varint, V) - Varint;
  if (static_cast<size_t>(R.Limit - R.At) < Len - 1)
    R = Sink.Out.grow(R.At, Len - 1);
  guard(R.At, R.Limit, Len - 1);
  char *const Byte = Sink.Out.room().At + Slot;
  std::memmove(Byte + Len, Byte + 1, R.At - (Byte + 1));
  std::memcpy(Byte, Varint, Len);
  R.At += Len - 1;
  return R;
}
