//===- TraceSchema.h - The trace record model and its schema ----*- C++ -*-===//
//
// Part of the zam project: a reproduction of "Language-Based Control and
// Mitigation of Timing Channels" (Zhang, Askarov, Myers; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one record model of the structured traces and the one declaration of
/// the records the producers write. A TraceRecord's args are typed values;
/// the readers (obs/TraceReader.h) yield records in this model from all
/// three formats and TraceSink::record() writes it back.
///
/// traceSchema() lists every record a producer writes — the provenance
/// header, `assign` events, mitigate and leak_budget spans, the run's and
/// the attack's snapshot rows, the embedded ledger rows, sampled misses and
/// attack samples — with its kind, category, name form and each arg's type.
/// A reader matches each record against it (applyTraceSchema) and decodes
/// each declared arg from its text, the same in every format, so the
/// formats yield equal records by construction. An arg the schema does not
/// declare, and a declared one whose text does not read as its type, stay
/// Text: a consumer asking for a number finds none and says so. The
/// writers' conformance to the table is a test (trace_golden_test's
/// TraceSchema tests), not a check on the export path.
///
//===----------------------------------------------------------------------===//

#ifndef ZAM_OBS_TRACESCHEMA_H
#define ZAM_OBS_TRACESCHEMA_H

#include "obs/Json.h"

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace zam {

/// The type of a record arg's value.
enum class TraceArgType : uint8_t {
  U64,     ///< An unsigned integer.
  I64,     ///< A signed integer.
  F64,     ///< A double: its shortest round-trip form, or "inf"/"nan".
  Bool,    ///< "true" or "false".
  Hex,     ///< "0x" and hex digits.
  Text,    ///< A string.
  U64List, ///< Unsigned integers joined by ','; "" is the empty list.
};

/// One record arg: its key and its typed value.
struct TraceArg {
  std::string Key;
  TraceArgType Type = TraceArgType::Text;
  /// A U64, Hex or Bool (0 or 1) value; an I64 or F64 one as its bits.
  uint64_t Bits = 0;
  std::string Text;           ///< A Text value.
  std::vector<uint64_t> List; ///< A U64List value.

  static TraceArg u64(std::string Key, uint64_t V) {
    return {std::move(Key), TraceArgType::U64, V, {}, {}};
  }
  static TraceArg i64(std::string Key, int64_t V) {
    return {std::move(Key), TraceArgType::I64, static_cast<uint64_t>(V), {},
            {}};
  }
  static TraceArg boolean(std::string Key, bool V) {
    return {std::move(Key), TraceArgType::Bool, V, {}, {}};
  }
  static TraceArg text(std::string Key, std::string V) {
    return {std::move(Key), TraceArgType::Text, 0, std::move(V), {}};
  }

  /// The value as a \p T, if it holds one: an integer type takes a U64 or
  /// I64 value in its range, double any number, bool a Bool and
  /// std::string_view a Text.
  template <typename T> std::optional<T> as() const {
    if constexpr (std::is_same_v<T, bool>) {
      if (Type == TraceArgType::Bool)
        return Bits != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      if (Type == TraceArgType::F64)
        return std::bit_cast<double>(Bits);
      if (Type == TraceArgType::U64)
        return static_cast<double>(Bits);
      if (Type == TraceArgType::I64)
        return static_cast<double>(static_cast<int64_t>(Bits));
    } else if constexpr (std::is_same_v<T, std::string_view>) {
      if (Type == TraceArgType::Text)
        return std::string_view(Text);
    } else {
      static_assert(std::is_integral_v<T>);
      if (Type == TraceArgType::U64 && std::in_range<T>(Bits))
        return static_cast<T>(Bits);
      if (Type == TraceArgType::I64 &&
          std::in_range<T>(static_cast<int64_t>(Bits)))
        return static_cast<T>(static_cast<int64_t>(Bits));
    }
    return std::nullopt;
  }

  /// The value's text: what ZTB carries, and what JSON carries, bare when
  /// it reads as a number literal and quoted otherwise.
  std::string str() const;

  bool operator==(const TraceArg &) const = default;
};

/// The schema entries, in traceSchema() order; Unknown for a record that
/// matches none.
enum class TraceRecordType : uint8_t {
  Header,
  Assign,
  Mitigate,
  LeakBudget,
  Snapshot,
  AttackSnapshot,
  ProfLine,
  ProfSite,
  DMiss,
  IMiss,
  Sample,
  Unknown,
};

/// One structured trace record on the simulated cycle clock.
struct TraceRecord {
  enum class Kind {
    Instant, ///< A point event (assignment, cache miss).
    Span,    ///< An interval [Ts, Ts + Dur] (mitigate window, step).
    Counter, ///< A sampled counter value at Ts.
    Meta,    ///< The provenance header (no name) or a metadata row.
  };

  Kind RecordKind = Kind::Instant;
  std::string Name;     ///< Event name, e.g. "mitigate#0" or "assign l".
  std::string Category; ///< Stream, e.g. "interp", "mit", "hw".
  uint64_t Ts = 0;      ///< Start time in cycles.
  uint64_t Dur = 0;     ///< Span length in cycles (Span only).
  double Value = 0;     ///< Counter sample (Counter only).
  std::vector<TraceArg> Args;
  /// The schema entry a reader matched the record to, and the index its
  /// name carries ("mitigate#3", "assign a[3]"): nullopt when the name
  /// carries none or one that is not a uint64_t.
  TraceRecordType Type = TraceRecordType::Unknown;
  std::optional<uint64_t> Index;

  /// The arg named \p Key, or nullptr.
  const TraceArg *arg(std::string_view Key) const {
    for (const TraceArg &A : Args)
      if (A.Key == Key)
        return &A;
    return nullptr;
  }
  /// Arg \p Key as a \p T; nullopt when it is absent or holds no T.
  template <typename T> std::optional<T> get(std::string_view Key) const {
    const TraceArg *A = arg(Key);
    return A ? A->as<T>() : std::nullopt;
  }
  /// The args as a JSON object: numbers and bools as such, the others as
  /// their text.
  JsonValue argsJson() const;
  /// Reads arg \p Key into \p Out when present. \returns false when it is
  /// present and holds no \p T.
  template <typename T> bool read(std::string_view Key, T &Out) const {
    const TraceArg *A = arg(Key);
    if (!A)
      return true;
    const std::optional<T> V = A->as<T>();
    if (V)
      Out = *V;
    return V.has_value();
  }
};

/// How a record's name is formed from the declared name.
enum class TraceNameForm : uint8_t {
  Exact,    ///< As declared.
  Index,    ///< The declared prefix and a decimal index: "mitigate#3".
  Variable, ///< The declared prefix and a variable, with "[i]" for an
            ///< array element: "assign l", "assign a[3]".
};

/// One declared arg.
struct TraceArgSpec {
  std::string_view Key;
  TraceArgType Type;
};

/// One declared record.
struct TraceRecordSpec {
  TraceRecordType Type;
  TraceRecord::Kind Kind;
  std::string_view Category;
  std::string_view Name;
  TraceNameForm Form;
  /// In the order the producer writes them; a producer may leave out any.
  std::span<const TraceArgSpec> Args;
};

/// Every record the producers write, in TraceRecordType order.
std::span<const TraceRecordSpec> traceSchema();

/// Matches \p R to its schema entry by kind, category and name, setting
/// R.Type and R.Index, and decodes each of its declared args from its
/// text: on entry every arg is Text, holding the text the format carried.
/// Two entries with one kind, category and name (the snapshot rows) are
/// told apart by the first arg.
void applyTraceSchema(TraceRecord &R);

} // namespace zam

#endif // ZAM_OBS_TRACESCHEMA_H
