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

TraceHead ZtbTraceSink::head(TraceRecord::Kind K, std::string_view Name,
                             Category Cat) {
  std::string Text(Name.size() + ztb::kMaxVarintBytes + Cat.size(), '\0');
  char *P = trace_detail::copy(Text.data(), Name);
  P = trace_detail::copy(ztb::writeVarint(P, Cat.size()), Cat);
  Text.resize(P - Text.data());
  return {K, TraceText(Text), Name.size()};
}

TraceBuffer::Room ZtbRecordWriter::widen(TraceSink &Sink,
                                         TraceBuffer::Room R, size_t Slot,
                                         uint64_t V) {
  char Varint[ztb::kMaxVarintBytes];
  const size_t Len = ztb::writeVarint(Varint, V) - Varint;
  if (static_cast<size_t>(R.Limit - R.At) < Len - 1)
    R = Sink.Out.grow(R.At, Len - 1);
  guard(R.At, R.Limit, Len - 1);
  char *const Byte = R.Data + Slot;
  std::memmove(Byte + Len, Byte + 1, R.At - (Byte + 1));
  std::memcpy(Byte, Varint, Len);
  R.At += Len - 1;
  return R;
}
