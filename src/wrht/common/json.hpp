// The one text-format layer of every on-disk artifact: RunReport JSON,
// wrht-blame-1, svc-events-1, wrht-metrics-1, wrht-perf-1, Chrome traces
// and perf baselines. Each rule below has exactly one implementation.
//
//   * escape / unescape: JSON string bodies. escape() writes `"`, `\`, LF,
//     TAB and CR as two-character escapes and other bytes below 0x20 as
//     \u00XX; all else (UTF-8 included) passes through. unescape() is its
//     strict inverse.
//   * num9 / num17: %.9g is for display (reports people read or plot);
//     %.17g round-trips a double exactly and is what any file that is read
//     back (event logs, blame) must use.
//   * parse_u64 / parse_u32 / parse_f64: strict tokens. The token is the
//     whole number: no sign on an unsigned, no surrounding bytes, no
//     overflow, not empty.
//   * FieldReader: the `"key": value` pairs of one line of a flat JSON
//     document. Readers keep their own line and section structure.
//
// Every failure throws InvalidArgument naming the offending token; callers
// add the file and line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wrht::json {

[[nodiscard]] std::string escape(std::string_view s);
/// Accepts \" \\ \/ \b \f \n \r \t and \u0000-\u007f; rejects raw control
/// bytes and any other escape.
[[nodiscard]] std::string unescape(std::string_view s);

[[nodiscard]] std::string num9(double v);
[[nodiscard]] std::string num17(double v);

[[nodiscard]] std::uint64_t parse_u64(std::string_view token);
[[nodiscard]] std::uint32_t parse_u32(std::string_view token);
/// A finite decimal; no "inf", "nan", hex or leading '+'.
[[nodiscard]] double parse_f64(std::string_view token);

struct Field {
  enum class Kind : std::uint8_t {
    kString,  ///< value is the unescaped string
    kNumber,  ///< value is the raw token; read it with parse_*
    kBool,    ///< "true" or "false"
    kOpen,    ///< the value opens an object or array: "{" or "["
  };
  std::string key;
  Kind kind = Kind::kString;
  std::string value;
};

/// Tokenizes one line in order. Structural bytes ({ } [ ] ,) between pairs
/// are skipped, so the pairs of an object opened on the line are read too.
/// A duplicate key, an unterminated string, a bare word or a stray byte
/// throws.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line);

  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }
  /// nullptr when the line has no such key.
  [[nodiscard]] const Field* find(std::string_view key) const;

  /// Each throws when the key is missing, of another kind, or out of range.
  [[nodiscard]] const std::string& str(std::string_view key) const;
  [[nodiscard]] std::uint64_t u64(std::string_view key) const;
  [[nodiscard]] std::uint32_t u32(std::string_view key) const;
  [[nodiscard]] double f64(std::string_view key) const;

 private:
  [[nodiscard]] const std::string& get(std::string_view key,
                                       Field::Kind kind) const;

  std::vector<Field> fields_;
};

}  // namespace wrht::json
