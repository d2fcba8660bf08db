#ifndef CAUSALFORMER_UTIL_STRING_UTIL_H_
#define CAUSALFORMER_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

/// \file
/// Small string helpers used by the table renderer, CSV I/O, reports and
/// the JSON writers (log lines, chrome traces, profiles).

namespace causalformer {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits on a single character; keeps empty fields.
std::vector<std::string> StrSplit(const std::string& s, char delim);

/// Joins with a separator.
std::string StrJoin(const std::vector<std::string>& parts, const std::string& sep);

/// Trims ASCII whitespace from both ends.
std::string StrTrim(const std::string& s);

/// "0.68±0.08"-style rendering used in the paper's tables.
std::string MeanStd(double mean, double stddev, int precision = 2);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Appends `value` to `*out` escaped for the inside of a JSON string: `"`
/// and `\` get a backslash, newline, carriage return and tab become `\n`,
/// `\r` and `\t`, any other byte below 0x20 becomes `\u00XX`, and every
/// other byte passes through unchanged.
void AppendJsonEscaped(const std::string& value, std::string* out);

}  // namespace causalformer

#endif  // CAUSALFORMER_UTIL_STRING_UTIL_H_
