#include "obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace flex::obs::json {

namespace {

std::string
Format(const char* format, double value)
{
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

/**
 * Offset of the value of `"key":` in @p json — past the colon and any
 * spaces or tabs after it (the manifest is pretty-printed) — or npos.
 */
std::size_t
ValueOffset(const std::string& json, const char* key)
{
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t at = json.find(needle);
  if (at == std::string::npos)
    return std::string::npos;
  at += needle.size();
  while (at < json.size() && (json[at] == ' ' || json[at] == '\t'))
    ++at;
  return at;
}

/**
 * Parses the string literal opening at @p *at and moves @p *at past its
 * closing quote. False when @p *at is not a quote or the literal is
 * unterminated.
 */
bool
ParseStringAt(const std::string& json, std::size_t* at, std::string* out)
{
  std::size_t i = *at;
  if (i >= json.size() || json[i] != '"')
    return false;
  ++i;
  std::string value;
  while (i < json.size() && json[i] != '"') {
    char c = json[i];
    if (c == '\\' && i + 1 < json.size()) {
      const char next = json[i + 1];
      switch (next) {
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case 'r':
          c = '\r';
          break;
        case 'u': {
          // Only the \u00XX control-character escapes Escape() emits.
          if (i + 5 >= json.size())
            return false;
          const std::string hex = json.substr(i + 2, 4);
          c = static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
          i += 4;
          break;
        }
        default:
          c = next;
      }
      ++i;
    }
    value += c;
    ++i;
  }
  if (i >= json.size())
    return false;  // unterminated string
  *at = i + 1;
  *out = std::move(value);
  return true;
}

template <typename Int>
bool
ReadInteger(const std::string& json, const char* key, Int* out)
{
  const std::size_t at = ValueOffset(json, key);
  if (at == std::string::npos)
    return false;
  const char* first = json.data() + at;
  const char* last = json.data() + json.size();
  Int value{};
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc())
    return false;  // no digits, a sign on an unsigned field, or overflow
  // The value must end where a JSON value ends: no fraction, no
  // exponent, no hex tail.
  if (end != last && *end != ',' && *end != '}' && *end != ']' &&
      *end != ' ' && *end != '\t' && *end != '\r' && *end != '\n')
    return false;
  *out = value;
  return true;
}

}  // namespace

std::string
Num(double value)
{
  return Format("%.9g", value);
}

std::string
ExactNum(double value)
{
  return Format("%.17g", value);
}

std::string
Escape(const std::string& text)
{
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool
ReadNumber(const std::string& json, const char* key, double* out)
{
  const std::size_t at = ValueOffset(json, key);
  if (at == std::string::npos)
    return false;
  char* end = nullptr;
  const double value = std::strtod(json.c_str() + at, &end);
  if (end == json.c_str() + at)
    return false;
  *out = value;
  return true;
}

bool
ReadInt(const std::string& json, const char* key, int* out)
{
  return ReadInteger(json, key, out);
}

bool
ReadInt(const std::string& json, const char* key, std::uint64_t* out)
{
  return ReadInteger(json, key, out);
}

bool
ReadString(const std::string& json, const char* key, std::string* out)
{
  std::size_t at = ValueOffset(json, key);
  return at != std::string::npos && ParseStringAt(json, &at, out);
}

bool
ReadBool(const std::string& json, const char* key, bool* out)
{
  const std::size_t at = ValueOffset(json, key);
  if (at == std::string::npos)
    return false;
  if (json.compare(at, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (json.compare(at, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

bool
ReadStringArray(const std::string& json, const char* key,
                std::vector<std::string>* out)
{
  std::size_t at = ValueOffset(json, key);
  if (at == std::string::npos || at >= json.size() || json[at] != '[')
    return false;
  ++at;
  // Walk the elements as string literals rather than find()ing ']':
  // notes carry tags like "[ups-trip]" whose ']' is not the array's.
  while (at < json.size() && json[at] != ']') {
    if (json[at] != '"') {
      ++at;  // whitespace or the comma between elements
      continue;
    }
    std::string element;
    if (!ParseStringAt(json, &at, &element))
      break;
    out->push_back(std::move(element));
  }
  return true;
}

std::vector<std::string>
SplitLines(const std::string& text)
{
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos)
      end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace flex::obs::json
