/**
 * @file
 * The one JSON codec behind every obs/fault export and loader.
 *
 * Writers build their single-line objects (and the pretty-printed
 * manifest) by hand in a fixed key order and take numbers and strings
 * from here, so every file and endpoint formats a double or escapes a
 * string the same way. Readers pull named fields out of one object with
 * the Read* calls below: a field is `"key":` followed by optional
 * spaces or tabs, then the value. That is enough for the shapes this
 * repo writes (flat objects, the manifest's string array) and keeps the
 * untrusted-input surface to one small file. Every reader returns false
 * on anything it cannot take, and never throws.
 */
#ifndef FLEX_OBS_JSON_HPP_
#define FLEX_OBS_JSON_HPP_

#include <cstdint>
#include <string>
#include <vector>

namespace flex::obs::json {

/**
 * Nine significant digits: compact, and bit-identical across runs of
 * one seed. The format of every exported double except fault-plan
 * inputs.
 */
std::string Num(double value);

/**
 * Seventeen significant digits: a bit-exact round trip. Only for inputs
 * a replay must reproduce exactly (fault plans) — one LSB of drift in a
 * fault time walks the whole replay off the recorded timeline.
 */
std::string ExactNum(double value);

/**
 * String escaping: quote, backslash, \n, \r and \t by name, other
 * control characters as \u00XX. ReadString undoes it.
 */
std::string Escape(const std::string& text);

/** A number field (whatever strtod takes, inf and nan included). */
bool ReadNumber(const std::string& json, const char* key, double* out);

/**
 * An integer field: a plain decimal integer that fits the target type.
 * Rejects non-finite, fractional, exponent-form and out-of-range values,
 * so a hostile `"seq":-1` or `"target":1e300` is an error rather than an
 * undefined cast. Exact over the whole 64-bit range.
 */
bool ReadInt(const std::string& json, const char* key, int* out);
bool ReadInt(const std::string& json, const char* key, std::uint64_t* out);

/** A string field, unescaped. False when unterminated. */
bool ReadString(const std::string& json, const char* key, std::string* out);

/** A `true` / `false` field. */
bool ReadBool(const std::string& json, const char* key, bool* out);

/**
 * A string-array field (`"notes": ["a", "b"]`). Stops at the closing
 * bracket or the first malformed element, keeping what it read; false
 * only when the key or the opening bracket is missing.
 */
bool ReadStringArray(const std::string& json, const char* key,
                     std::vector<std::string>* out);

/**
 * Splits JSONL text at '\n'. Blank lines are kept, so element i is line
 * i + 1; a final newline does not add an empty last line.
 */
std::vector<std::string> SplitLines(const std::string& text);

}  // namespace flex::obs::json

#endif  // FLEX_OBS_JSON_HPP_
