//===- Json.cpp -----------------------------------------------------------===//

#include "obs/Json.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
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

static void escapeString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
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
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
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

/// Recursive-descent parser over the grammar dump() emits (which is all of
/// JSON except exotic escapes).
class Parser {
public:
  explicit Parser(const std::string &Text) : S(Text.c_str()) {}

  std::optional<JsonValue> parse() {
    std::optional<JsonValue> V = value();
    skipWs();
    if (!V || *S != '\0')
      return std::nullopt;
    return V;
  }

private:
  void skipWs() {
    while (*S == ' ' || *S == '\n' || *S == '\t' || *S == '\r')
      ++S;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (std::strncmp(S, Word, Len) != 0)
      return false;
    S += Len;
    return true;
  }

  std::optional<std::string> string() {
    if (*S != '"')
      return std::nullopt;
    ++S;
    std::string Out;
    while (*S && *S != '"') {
      if (*S == '\\') {
        ++S;
        switch (*S) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
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
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            ++S;
            if (!std::isxdigit(static_cast<unsigned char>(*S)))
              return std::nullopt;
            Code = Code * 16 + (std::isdigit(static_cast<unsigned char>(*S))
                                    ? *S - '0'
                                    : (std::tolower(*S) - 'a' + 10));
          }
          // Only the BMP-in-ASCII escapes we emit.
          Out += static_cast<char>(Code);
          break;
        }
        default:
          return std::nullopt;
        }
        ++S;
      } else {
        Out += *S++;
      }
    }
    if (*S != '"')
      return std::nullopt;
    ++S;
    return Out;
  }

  std::optional<JsonValue> value() {
    skipWs();
    if (literal("null"))
      return JsonValue();
    if (literal("true"))
      return JsonValue(true);
    if (literal("false"))
      return JsonValue(false);
    if (*S == '"') {
      std::optional<std::string> Str = string();
      if (!Str)
        return std::nullopt;
      return JsonValue(std::move(*Str));
    }
    if (*S == '[') {
      ++S;
      JsonValue Arr = JsonValue::array();
      skipWs();
      if (*S == ']') {
        ++S;
        return Arr;
      }
      while (true) {
        std::optional<JsonValue> Elem = value();
        if (!Elem)
          return std::nullopt;
        Arr.push(std::move(*Elem));
        skipWs();
        if (*S == ',') {
          ++S;
          continue;
        }
        if (*S == ']') {
          ++S;
          return Arr;
        }
        return std::nullopt;
      }
    }
    if (*S == '{') {
      ++S;
      JsonValue Obj = JsonValue::object();
      skipWs();
      if (*S == '}') {
        ++S;
        return Obj;
      }
      while (true) {
        skipWs();
        std::optional<std::string> Key = string();
        if (!Key)
          return std::nullopt;
        skipWs();
        if (*S != ':')
          return std::nullopt;
        ++S;
        std::optional<JsonValue> Member = value();
        if (!Member)
          return std::nullopt;
        Obj[*Key] = std::move(*Member);
        skipWs();
        if (*S == ',') {
          ++S;
          continue;
        }
        if (*S == '}') {
          ++S;
          return Obj;
        }
        return std::nullopt;
      }
    }
    // Number: an integer literal within int64 exactly, anything else as
    // the double strtod reads.
    char *End = nullptr;
    double V = std::strtod(S, &End);
    if (End == S)
      return std::nullopt;
    int64_t I = 0;
    const std::from_chars_result Int = std::from_chars(S, End, I);
    S = End;
    if (Int.ec == std::errc() && Int.ptr == End)
      return JsonValue(I);
    return JsonValue(V);
  }

  const char *S;
};

} // namespace

std::optional<JsonValue> JsonValue::parse(const std::string &Text) {
  return Parser(Text).parse();
}
