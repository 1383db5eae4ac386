//===- Json.cpp -----------------------------------------------------------===//

#include "obs/Json.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace zam;

void JsonValue::push(JsonValue V) {
  if (K == Kind::Null)
    K = Kind::Array;
  if (K != Kind::Array)
    reportFatalError("push() on a non-array JSON value");
  Items.push_back(std::move(V));
}

JsonValue &JsonValue::operator[](const std::string &Key) {
  if (K == Kind::Null)
    K = Kind::Object;
  if (K != Kind::Object)
    reportFatalError("operator[] on a non-object JSON value");
  for (auto &[Name, Value] : Members)
    if (Name == Key)
      return Value;
  Members.emplace_back(Key, JsonValue());
  return Members.back().second;
}

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

bool JsonValue::operator==(const JsonValue &Other) const {
  if (K != Other.K)
    return false;
  switch (K) {
  case Kind::Null:
    return true;
  case Kind::Bool:
    return BoolV == Other.BoolV;
  case Kind::Number:
    return IsInt && Other.IsInt ? IntV == Other.IntV : NumV == Other.NumV;
  case Kind::String:
    return StrV == Other.StrV;
  case Kind::Array:
    return Items == Other.Items;
  case Kind::Object:
    return Members == Other.Members;
  }
  return false;
}

char *zam::writeJsonEscaped(char *P, std::string_view S) {
  for (const char C : S) {
    const unsigned char U = static_cast<unsigned char>(C);
    if (U >= 0x20 && C != '"' && C != '\\') {
      *P++ = C;
      continue;
    }
    *P++ = '\\';
    switch (C) {
    case '"':
    case '\\':
      *P++ = C;
      break;
    case '\n':
      *P++ = 'n';
      break;
    case '\t':
      *P++ = 't';
      break;
    default: {
      static constexpr char Hex[] = "0123456789abcdef";
      const char Escape[] = {'u', '0', '0', Hex[U >> 4], Hex[U & 0xF]};
      std::memcpy(P, Escape, sizeof(Escape));
      P += sizeof(Escape);
    }
    }
  }
  return P;
}

static void escapeString(std::string &Out, const std::string &S) {
  const size_t At = Out.size();
  Out.resize(At + 6 * S.size() + 2);
  Out[At] = '"';
  char *End = writeJsonEscaped(Out.data() + At + 1, S);
  *End++ = '"';
  Out.resize(End - Out.data());
}

char *zam::writeJsonNumber(char *First, double V) {
  char *const Last = First + kJsonNumberMaxChars;
  // The shortest round-trip form's digit count is a lower bound on the
  // least "%.*g" precision that round-trips: that precision's output is a
  // string of that many digits which round-trips. std::to_chars with a
  // precision is specified to match "%.*g".
  const char *const Sci =
      std::to_chars(First, Last, V, std::chars_format::scientific).ptr;
  int Prec = 0;
  for (const char *P = First; P != Sci && *P != 'e'; ++P)
    Prec += *P >= '0' && *P <= '9';
  for (Prec = std::max(Prec, 1); Prec < 17; ++Prec) {
    char *const End =
        std::to_chars(First, Last, V, std::chars_format::general, Prec).ptr;
    double Back = 0;
    const std::from_chars_result R = std::from_chars(First, End, Back);
    if (R.ptr == End && R.ec == std::errc() && Back == V)
      return End;
  }
  return std::to_chars(First, Last, V, std::chars_format::general, 17).ptr;
}

std::string zam::jsonNumberString(double V) {
  char Buf[kJsonNumberMaxChars];
  return std::string(Buf, writeJsonNumber(Buf, V));
}

void JsonValue::dumpTo(std::string &Out, unsigned Depth) const {
  const std::string Pad(2 * (Depth + 1), ' ');
  const std::string Close(2 * Depth, ' ');
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    break;
  case Kind::Number:
    Out += IsInt ? std::to_string(IntV) : jsonNumberString(NumV);
    break;
  case Kind::String:
    escapeString(Out, StrV);
    break;
  case Kind::Array: {
    if (Items.empty()) {
      Out += "[]";
      break;
    }
    // Scalar-only arrays (series values) stay on one line for readability.
    bool Nested = false;
    for (const JsonValue &V : Items)
      Nested |= V.K == Kind::Array || V.K == Kind::Object;
    Out += '[';
    for (size_t I = 0; I != Items.size(); ++I) {
      if (Nested) {
        Out += '\n';
        Out += Pad;
      } else if (I) {
        Out += ' ';
      }
      Items[I].dumpTo(Out, Depth + 1);
      if (I + 1 != Items.size())
        Out += ',';
    }
    if (Nested) {
      Out += '\n';
      Out += Close;
    }
    Out += ']';
    break;
  }
  case Kind::Object: {
    if (Members.empty()) {
      Out += "{}";
      break;
    }
    Out += '{';
    for (size_t I = 0; I != Members.size(); ++I) {
      Out += '\n';
      Out += Pad;
      escapeString(Out, Members[I].first);
      Out += ": ";
      Members[I].second.dumpTo(Out, Depth + 1);
      if (I + 1 != Members.size())
        Out += ',';
    }
    Out += '\n';
    Out += Close;
    Out += '}';
    break;
  }
  }
}

std::string JsonValue::dump() const {
  std::string Out;
  dumpTo(Out, 0);
  Out += '\n';
  return Out;
}

namespace {

bool isJsonSpace(char C) {
  return C == ' ' || C == '\n' || C == '\t' || C == '\r';
}

/// Appends the unescaped body of the string from \p P, just past its
/// opening quote, to \p Out; \returns the position past its closing quote.
const char *readJsonString(const char *P, const char *End, std::string &Out) {
  while (P != End && *P != '"') {
    if (*P != '\\') {
      Out += *P++;
      continue;
    }
    if (++P == End)
      return nullptr;
    switch (*P) {
    case '"':
    case '\\':
    case '/':
      Out += *P;
      break;
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case 'b':
      Out += '\b';
      break;
    case 'f':
      Out += '\f';
      break;
    case 'u': {
      if (End - P < 5)
        return nullptr;
      unsigned Code = 0;
      const auto [Ptr, Ec] = std::from_chars(P + 1, P + 5, Code, 16);
      if (Ec != std::errc() || Ptr != P + 5)
        return nullptr;
      // Only the BMP-in-ASCII escapes we emit.
      Out += static_cast<char>(Code);
      P += 4;
      break;
    }
    default:
      return nullptr;
    }
    ++P;
  }
  return P == End ? nullptr : P + 1;
}

/// Parses the value at \p P into \p Out: the grammar dump() emits, which
/// is all of JSON except exotic escapes, plus the "inf" and "nan" that
/// dump() writes for such doubles, \p Depth arrays and objects deep.
/// \returns its end, or nullptr.
const char *parseValue(const char *P, const char *E, JsonValue &Out,
                       unsigned Depth = 0) {
  P = skipJsonSpace(P, E);
  if (Depth > JsonValue::kMaxDepth)
    return nullptr;
  if (P != E && *P == '"') {
    std::string S;
    P = scanJsonString(P, E, S);
    Out = JsonValue(std::move(S));
    return P;
  }
  if (P != E && *P == '{') {
    std::string KeyBuf;
    Out = JsonValue::object();
    return scanJsonObject(P, E, KeyBuf, [&](std::string_view Key,
                                            const char *At) {
      return parseValue(At, E, Out[std::string(Key)], Depth + 1);
    });
  }
  if (P != E && *P == '[') {
    Out = JsonValue::array();
    P = skipJsonSpace(P + 1, E);
    if (P != E && *P == ']')
      return P + 1;
    for (;;) {
      JsonValue Elem;
      if (!(P = parseValue(P, E, Elem, Depth + 1)))
        return nullptr;
      Out.push(std::move(Elem));
      P = skipJsonSpace(P, E);
      if (P == E || (*P != ',' && *P != ']'))
        return nullptr;
      if (*P++ == ']')
        return P;
    }
  }
  const char *End = scanJsonBare(P, E);
  if (!End)
    return nullptr;
  const std::string_view T(P, End - P);
  // An integer within int64 exactly, any other number as the double
  // strtod reads (the input is a std::string, so it ends in a NUL).
  int64_t I = 0;
  const std::from_chars_result Int = std::from_chars(P, End, I);
  char *DoubleEnd = nullptr;
  const double D = std::strtod(P, &DoubleEnd);
  if (T == "null")
    Out = JsonValue();
  else if (T == "true" || T == "false")
    Out = JsonValue(T == "true");
  else if (Int.ec == std::errc() && Int.ptr == End)
    Out = JsonValue(I);
  else if (DoubleEnd == End)
    Out = JsonValue(D);
  else
    return nullptr;
  return End;
}

} // namespace

const char *zam::skipJsonSpace(const char *P, const char *E) {
  while (P != E && isJsonSpace(*P))
    ++P;
  return P;
}

const char *zam::scanJsonString(const char *P, const char *E,
                                std::string_view &Out,
                                std::string &Unescaped) {
  if (P == E || *P != '"')
    return nullptr;
  const char *Q = ++P;
  while (Q != E && *Q != '"' && *Q != '\\')
    ++Q;
  if (Q != E && *Q == '"') {
    Out = {P, static_cast<size_t>(Q - P)};
    return Q + 1;
  }
  Unescaped.clear();
  const char *End = readJsonString(P, E, Unescaped);
  Out = Unescaped;
  return End;
}

const char *zam::scanJsonString(const char *P, const char *E,
                                std::string &Out) {
  std::string_view View;
  P = scanJsonString(P, E, View, Out);
  if (P && View.data() != Out.data())
    Out.assign(View);
  return P;
}

const char *zam::scanJsonBare(const char *P, const char *E) {
  const char *End = P;
  while (End != E && !isJsonSpace(*End) && *End != ',' && *End != '}' &&
         *End != ']')
    ++End;
  return End == P ? nullptr : End;
}

std::optional<JsonValue> JsonValue::parse(const std::string &Text) {
  JsonValue V;
  const char *E = Text.data() + Text.size();
  const char *End = parseValue(Text.data(), E, V);
  if (!End || skipJsonSpace(End, E) != E)
    return std::nullopt;
  return V;
}
