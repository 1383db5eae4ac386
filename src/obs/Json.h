//===- Json.h - Minimal JSON document model ---------------------*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON value type shared by the telemetry layer
/// (metrics registries, trace sinks) and the experiment harness, which uses
/// it to emit machine-readable reports (`--json`) and to round-trip them in
/// tests. Object keys keep insertion order so that emitted documents are
/// byte-stable across runs and thread counts — a requirement for the
/// harness's bit-identical-output guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_JSON_H
#define ZAM_OBS_JSON_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zam {

/// A JSON document node: null, bool, number, string, array or object.
/// Integers within int64 keep their exact value beside the double, so
/// cycle counts print without a spurious fraction and large ones (past
/// 2^53) read back exactly.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  JsonValue(bool B) : K(Kind::Bool), BoolV(B) {}
  JsonValue(double D) : K(Kind::Number), NumV(D) {}
  JsonValue(int64_t I)
      : K(Kind::Number), NumV(static_cast<double>(I)), IntV(I), IsInt(true) {}
  JsonValue(uint64_t U)
      : K(Kind::Number), NumV(static_cast<double>(U)),
        IntV(static_cast<int64_t>(U)),
        IsInt(U <= static_cast<uint64_t>(INT64_MAX)) {}
  JsonValue(int I) : JsonValue(static_cast<int64_t>(I)) {}
  JsonValue(unsigned U) : JsonValue(static_cast<uint64_t>(U)) {}
  JsonValue(std::string S) : K(Kind::String), StrV(std::move(S)) {}
  JsonValue(const char *S) : K(Kind::String), StrV(S) {}

  static JsonValue array() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue object() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }

  bool asBool() const { return BoolV; }
  double asNumber() const { return NumV; }
  /// Whether the number is an integer within int64, held exactly by
  /// asInt().
  bool isInt() const { return K == Kind::Number && IsInt; }
  int64_t asInt() const { return IntV; }
  const std::string &asString() const { return StrV; }

  /// Array access. push() asserts the value is (or becomes) an array.
  void push(JsonValue V);
  size_t size() const { return Items.size(); }
  const JsonValue &at(size_t I) const { return Items[I]; }

  /// Object access: insert-or-get by key, preserving insertion order.
  JsonValue &operator[](const std::string &Key);
  /// Lookup without insertion; nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Structural equality. Numbers compare by value (an integral 2 equals a
  /// parsed 2), so dump/parse round-trips compare equal.
  bool operator==(const JsonValue &Other) const;
  bool operator!=(const JsonValue &Other) const { return !(*this == Other); }

  /// Serializes with two-space indentation and a trailing newline at the
  /// top level. Key and element order is preserved.
  std::string dump() const;

  /// The deepest nesting parse() accepts (dump() documents nest a few
  /// levels): a deeper one would exhaust the stack.
  static constexpr unsigned kMaxDepth = 256;

  /// Parses a JSON document; std::nullopt on malformed input or one
  /// nested deeper than kMaxDepth.
  static std::optional<JsonValue> parse(const std::string &Text);

private:
  void dumpTo(std::string &Out, unsigned Depth) const;

  Kind K;
  bool BoolV = false;
  double NumV = 0;
  int64_t IntV = 0;
  bool IsInt = false;
  std::string StrV;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// Writes \p S escaped as the body of a JSON string (at most 6 bytes per
/// byte of \p S) and \returns its end: `\"`, `\\`, `\n` and `\t` get
/// short escapes, every other byte below 0x20 a `\u00xx`, and every other
/// byte passes as it stands.
char *writeJsonEscaped(char *P, std::string_view S);

// The JSON lexer that JsonValue::parse and the text trace readers
// (obs/TraceReader.h) share. Each call reads the token at \p P, before
// \p E, and \returns its end, or nullptr when it is malformed.

/// Skips whitespace.
const char *skipJsonSpace(const char *P, const char *E);

/// Reads a string: \p Out views it in the input, or in \p Unescaped when
/// it holds an escape.
const char *scanJsonString(const char *P, const char *E, std::string_view &Out,
                           std::string &Unescaped);
/// Reads a string into \p Out.
const char *scanJsonString(const char *P, const char *E, std::string &Out);

/// Reads a bare scalar's characters — a number, true, false or null, which
/// the caller checks — up to the next delimiter.
const char *scanJsonBare(const char *P, const char *E);

/// Reads an object, calling \p Member(Key, At) at each member's value,
/// which \returns the value's end or nullptr. \p KeyBuf holds a key that
/// needs unescaping.
template <typename Fn>
const char *scanJsonObject(const char *P, const char *E, std::string &KeyBuf,
                           Fn Member) {
  if (P == E || *P != '{')
    return nullptr;
  P = skipJsonSpace(P + 1, E);
  if (P != E && *P == '}')
    return P + 1;
  for (;;) {
    std::string_view Key;
    P = scanJsonString(P, E, Key, KeyBuf);
    if (!P || (P = skipJsonSpace(P, E)) == E || *P != ':')
      return nullptr;
    P = Member(Key, skipJsonSpace(P + 1, E));
    if (!P || (P = skipJsonSpace(P, E)) == E)
      return nullptr;
    if (*P == '}')
      return P + 1;
    if (*P != ',')
      return nullptr;
    P = skipJsonSpace(P + 1, E);
  }
}

/// The shortest decimal representation of \p V that parses back to exactly
/// the same double — the formatting JsonValue::dump uses. Producers that
/// hand-serialize doubles (trace args) use this so a parse-back yields the
/// bit-identical value.
std::string jsonNumberString(double V);

/// The most characters writeJsonNumber writes.
inline constexpr size_t kJsonNumberMaxChars = 32;

/// Writes jsonNumberString(\p V) to [\p First, \p First +
/// kJsonNumberMaxChars) and \returns its end: "%.*g" at the least
/// precision that round-trips (17 when none below does), so a finite value
/// reads as a JSON number and inf and nan as "inf", "-inf", "nan" and
/// "-nan".
char *writeJsonNumber(char *First, double V);

} // namespace zam

#endif // ZAM_OBS_JSON_H
