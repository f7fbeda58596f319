#include "wrht/common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "wrht/common/error.hpp"

namespace wrht::json {

namespace {

/// `token` as it is shown inside an error message.
std::string quoted(std::string_view token) {
  return "'" + escape(token) + "'";
}

bool is_separator(char c) {
  return std::string_view(" \t\r{}[],").find(c) != std::string_view::npos;
}

std::string formatted(const char* format, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// The string literal starting at line[*i] == '"', unescaped; leaves *i
/// one past its closing quote.
std::string read_string(std::string_view line, std::size_t* i) {
  std::size_t j = *i + 1;
  while (j < line.size() && line[j] != '"') j += line[j] == '\\' ? 2 : 1;
  if (j >= line.size()) {
    throw InvalidArgument("unterminated string at column " +
                          std::to_string(*i + 1));
  }
  std::string out = unescape(line.substr(*i + 1, j - *i - 1));
  *i = j + 1;
  return out;
}

/// parse(token), with the field named in any error.
template <typename Parse>
auto parse_field(std::string_view key, const std::string& token, Parse parse) {
  try {
    return parse(token);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument("field " + quoted(key) + ": " + e.what());
  }
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string unescape(std::string_view s) {
  constexpr std::string_view kEscaped = "\"\\/bfnrt";
  constexpr std::string_view kBytes = "\"\\/\b\f\n\r\t";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (static_cast<unsigned char>(s[i]) < 0x20) {
      throw InvalidArgument("raw control byte " + quoted(s.substr(i, 1)) +
                            " inside a string");
    }
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i == s.size()) throw InvalidArgument("truncated escape in string");
    if (const std::size_t k = kEscaped.find(s[i]); k != kEscaped.npos) {
      out += kBytes[k];
      continue;
    }
    // \uXXXX, limited to the ASCII range escape() produces.
    unsigned code = 0x80;
    if (s[i] == 'u' && s.size() - i > 4) {
      const char* digits = s.data() + i + 1;
      if (std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4) {
        code = 0x80;
      }
    }
    if (code >= 0x80) {
      throw InvalidArgument("unsupported escape " +
                            quoted(s.substr(i - 1, s[i] == 'u' ? 6 : 2)));
    }
    out += static_cast<char>(code);
    i += 4;
  }
  return out;
}

std::string num9(double v) { return formatted("%.9g", v); }

std::string num17(double v) { return formatted("%.17g", v); }

std::uint64_t parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw InvalidArgument(quoted(token) + " does not fit in 64 bits");
  }
  if (ec != std::errc{} || ptr != end) {
    throw InvalidArgument(quoted(token) + " is not an unsigned integer");
  }
  return value;
}

std::uint32_t parse_u32(std::string_view token) {
  const std::uint64_t value = parse_u64(token);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument(quoted(token) + " does not fit in 32 bits");
  }
  return static_cast<std::uint32_t>(value);
}

double parse_f64(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw InvalidArgument(quoted(token) + " is out of range for a double");
  }
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    throw InvalidArgument(quoted(token) + " is not a number");
  }
  return value;
}

FieldReader::FieldReader(std::string_view line) {
  std::size_t i = 0;
  const auto skip_spaces = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  while (true) {
    while (i < line.size() && is_separator(line[i])) ++i;
    if (i == line.size()) return;
    if (line[i] != '"') {
      throw InvalidArgument("unexpected " + quoted(line.substr(i, 1)) +
                            " at column " + std::to_string(i + 1));
    }
    Field field;
    field.key = read_string(line, &i);
    skip_spaces();
    if (i == line.size() || line[i] != ':') {
      throw InvalidArgument("expected ':' after " + quoted(field.key));
    }
    ++i;
    skip_spaces();
    const char first = i < line.size() ? line[i] : '\0';
    if (first == '"') {
      field.value = read_string(line, &i);
    } else if (first == '{' || first == '[') {
      field.kind = Field::Kind::kOpen;
      field.value = std::string(1, line[i++]);
    } else {
      std::size_t end = i;
      while (end < line.size() && !is_separator(line[end])) ++end;
      field.value = std::string(line.substr(i, end - i));
      i = end;
      if (field.value == "true" || field.value == "false") {
        field.kind = Field::Kind::kBool;
      } else if ((first == '-' || (first >= '0' && first <= '9')) &&
                 field.value.find_first_not_of("0123456789+-.eE") ==
                     std::string::npos) {
        field.kind = Field::Kind::kNumber;
      } else {
        throw InvalidArgument("field " + quoted(field.key) +
                              ": expected a value, got " +
                              quoted(field.value));
      }
    }
    if (find(field.key) != nullptr) {
      throw InvalidArgument("duplicate field " + quoted(field.key));
    }
    fields_.push_back(std::move(field));
  }
}

const Field* FieldReader::find(std::string_view key) const {
  for (const Field& field : fields_) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

const std::string& FieldReader::get(std::string_view key,
                                    Field::Kind kind) const {
  const Field* field = find(key);
  if (field == nullptr) {
    throw InvalidArgument("missing field " + quoted(key));
  }
  if (field->kind != kind) {
    throw InvalidArgument("field " + quoted(key) + " is not a " +
                          (kind == Field::Kind::kString ? "string" : "number"));
  }
  return field->value;
}

const std::string& FieldReader::str(std::string_view key) const {
  return get(key, Field::Kind::kString);
}

std::uint64_t FieldReader::u64(std::string_view key) const {
  return parse_field(key, get(key, Field::Kind::kNumber), parse_u64);
}

std::uint32_t FieldReader::u32(std::string_view key) const {
  return parse_field(key, get(key, Field::Kind::kNumber), parse_u32);
}

double FieldReader::f64(std::string_view key) const {
  return parse_field(key, get(key, Field::Kind::kNumber), parse_f64);
}

}  // namespace wrht::json
