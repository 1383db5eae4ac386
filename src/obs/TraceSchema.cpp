//===- TraceSchema.cpp ----------------------------------------------------===//

#include "obs/TraceSchema.h"

#include "obs/TraceSink.h"
#include "support/ParseInt.h"

#include <charconv>

using namespace zam;

namespace {

using enum TraceArgType;
using Kind = TraceRecord::Kind;
using Form = TraceNameForm;
using Type = TraceRecordType;

constexpr TraceArgSpec HeaderArgs[] = {
    {"tool", Text},       {"version", Text},        {"git", Text},
    {"compiler", Text},   {"build_type", Text},     {"threads", U64},
    {"mitigation", Text}, {"mitigation_sites", Text}, {"attack_samples", U64},
    {"attack_seed", U64}, {"attack_classes", Text}, {"adversary", Text}};
constexpr TraceArgSpec AssignArgs[] = {{"value", I64}, {"label", Text}};
constexpr TraceArgSpec MitigateArgs[] = {
    {"level", Text},    {"pc", Text},       {"estimate", I64},
    {"predicted", U64}, {"consumed", U64},  {"padded", U64},
    {"mispredicted", Bool}, {"loc", U64}};
constexpr TraceArgSpec LeakArgs[] = {
    {"level", Text},     {"estimate", I64},     {"misses_after", U64},
    {"attainable", U64}, {"window_bits", F64},  {"cum_level_bits", F64},
    {"mispredicted", Bool}, {"policy", Text},   {"loc", U64}};
constexpr TraceArgSpec SnapshotArgs[] = {{"windows", U64},
                                         {"total_bits_bound", F64}};
constexpr TraceArgSpec AttackSnapshotArgs[] = {{"samples", U64},
                                               {"end_to_end_p50", U64}};
constexpr TraceArgSpec ProfLineArgs[] = {
    {"cycles", U64},     {"step_cycles", U64}, {"sleep_cycles", U64},
    {"pad_cycles", U64}, {"accesses", U64},    {"misses", U64},
    {"windows", U64},    {"leak_bits", F64}};
constexpr TraceArgSpec ProfSiteArgs[] = {
    {"loc", U64}, {"windows", U64}, {"pad_cycles", U64}, {"leak_bits", F64}};
constexpr TraceArgSpec MissArgs[] = {
    {"addr", Hex},     {"cycles", U64},  {"tlb_miss", Bool},
    {"l1_miss", Bool}, {"memory", Bool}, {"loc", U64}};
constexpr TraceArgSpec SampleArgs[] = {
    {"class", Text},        {"class_index", U64}, {"end_to_end", U64},
    {"windows", U64List},   {"bound_bits", F64}};

constexpr TraceRecordSpec Schema[] = {
    {Type::Header, Kind::Meta, "", "", Form::Exact, HeaderArgs},
    {Type::Assign, Kind::Instant, "interp", "assign ", Form::Variable,
     AssignArgs},
    {Type::Mitigate, Kind::Span, "mit", "mitigate#", Form::Index,
     MitigateArgs},
    {Type::LeakBudget, Kind::Span, "leak", "leak_budget#", Form::Index,
     LeakArgs},
    {Type::Snapshot, Kind::Meta, "obs", "snapshot", Form::Exact, SnapshotArgs},
    {Type::AttackSnapshot, Kind::Meta, "obs", "snapshot", Form::Exact,
     AttackSnapshotArgs},
    {Type::ProfLine, Kind::Instant, "prof", "prof_line#", Form::Index,
     ProfLineArgs},
    {Type::ProfSite, Kind::Instant, "prof", "prof_site#", Form::Index,
     ProfSiteArgs},
    {Type::DMiss, Kind::Instant, "hw", "dmiss", Form::Exact, MissArgs},
    {Type::IMiss, Kind::Instant, "hw", "imiss", Form::Exact, MissArgs},
    {Type::Sample, Kind::Instant, "adv", "sample#", Form::Index, SampleArgs}};
static_assert(std::size(Schema) == static_cast<size_t>(Type::Unknown));

/// Whether \p Name has \p S's form; sets \p Index to the index it carries,
/// if any.
bool nameMatches(const TraceRecordSpec &S, std::string_view Name,
                 std::optional<uint64_t> &Index) {
  Index.reset();
  if (S.Form == Form::Exact)
    return Name == S.Name;
  if (!Name.starts_with(S.Name))
    return false;
  std::string_view Rest = Name.substr(S.Name.size());
  if (S.Form == Form::Variable) {
    const size_t Open = Rest.find('[');
    if (Rest.empty() || Open == 0)
      return false;
    if (Open == std::string_view::npos || !Rest.ends_with(']'))
      return true;
    Rest = Rest.substr(Open + 1, Rest.size() - Open - 2);
  }
  uint64_t V = 0;
  if (parseInteger(Rest, V))
    Index = V;
  return true;
}

/// Decodes \p A's text as a \p T; false (leaving \p A Text) when it does
/// not read as one.
bool decodeArg(TraceArg &A, TraceArgType T) {
  const std::string_view S = A.Text;
  switch (T) {
  case U64:
    if (!parseInteger(S, A.Bits))
      return false;
    break;
  case I64: {
    int64_t V = 0;
    if (!parseInteger(S, V))
      return false;
    A.Bits = static_cast<uint64_t>(V);
    break;
  }
  case F64: {
    double V = 0;
    const auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
    if (S.empty() || Ec != std::errc() || Ptr != S.data() + S.size())
      return false;
    A.Bits = std::bit_cast<uint64_t>(V);
    break;
  }
  case Bool:
    if (S != "true" && S != "false")
      return false;
    A.Bits = S == "true";
    break;
  case Hex: {
    if (S.size() < 3 || S.size() > 18 || !S.starts_with("0x"))
      return false;
    const auto [Ptr, Ec] =
        std::from_chars(S.data() + 2, S.data() + S.size(), A.Bits, 16);
    if (Ec != std::errc() || Ptr != S.data() + S.size())
      return false;
    break;
  }
  case Text:
    return true;
  case U64List:
    A.List.clear();
    for (size_t At = 0; !S.empty() && At <= S.size();) {
      const size_t Comma = std::min(S.find(',', At), S.size());
      if (!parseInteger(S.substr(At, Comma - At), A.List.emplace_back())) {
        A.List.clear();
        return false;
      }
      At = Comma + 1;
    }
    break;
  }
  A.Type = T;
  A.Text.clear();
  return true;
}

} // namespace

std::span<const TraceRecordSpec> zam::traceSchema() { return Schema; }

std::string TraceArg::str() const {
  switch (Type) {
  case TraceArgType::U64:
    return std::to_string(Bits);
  case TraceArgType::I64:
    return std::to_string(static_cast<int64_t>(Bits));
  case TraceArgType::F64:
    return jsonNumberString(std::bit_cast<double>(Bits));
  case TraceArgType::Bool:
    return Bits ? "true" : "false";
  case TraceArgType::Hex: {
    char Buf[trace_detail::kMaxHexChars];
    return std::string(Buf, trace_detail::writeHex(Buf, Bits));
  }
  case TraceArgType::Text:
    break;
  case TraceArgType::U64List: {
    std::string S;
    for (uint64_t V : List)
      S += (S.empty() ? "" : ",") + std::to_string(V);
    return S;
  }
  }
  return Text;
}

JsonValue TraceRecord::argsJson() const {
  JsonValue Object = JsonValue::object();
  for (const TraceArg &A : Args)
    if (A.Type == TraceArgType::U64)
      Object[A.Key] = A.Bits;
    else if (A.Type == TraceArgType::I64 || A.Type == TraceArgType::F64)
      Object[A.Key] = *A.as<double>();
    else if (A.Type == TraceArgType::Bool)
      Object[A.Key] = A.Bits != 0;
    else
      Object[A.Key] = A.str();
  return Object;
}

void zam::applyTraceSchema(TraceRecord &R) {
  const TraceRecordSpec *Match = nullptr;
  std::optional<uint64_t> Index, Candidate;
  for (const TraceRecordSpec &S : Schema) {
    if (S.Kind != R.RecordKind || S.Category != R.Category ||
        !nameMatches(S, R.Name, Candidate))
      continue;
    // Entries that share a head differ in their first arg.
    const bool ByArg =
        R.Args.empty() || S.Args.front().Key == R.Args.front().Key;
    if (!Match || ByArg) {
      Match = &S;
      Index = Candidate;
    }
    if (ByArg)
      break;
  }
  R.Type = Match ? Match->Type : Type::Unknown;
  R.Index = Index;
  if (!Match)
    return;
  for (TraceArg &A : R.Args)
    for (const TraceArgSpec &D : Match->Args)
      if (D.Key == A.Key) {
        decodeArg(A, D.Type);
        break;
      }
}
