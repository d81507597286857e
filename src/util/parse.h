//===- util/parse.h - Checked number parsing -------------------*- C++ -*-===//
///
/// \file
/// The one number parser behind every numeric command-line flag. Unlike
/// std::stoll/std::stod it never throws, rejects trailing garbage ("12ms"),
/// and rejects non-finite doubles, so a malformed value becomes the tool's
/// usage error (exit 2) instead of an uncaught exception.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_UTIL_PARSE_H
#define GENPROVE_UTIL_PARSE_H

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace genprove {

/// Parse all of \p Text as a decimal integer or a finite double. False on
/// empty text, any unparsed character, out-of-range values (a minus sign
/// for unsigned types) or a non-finite double; \p Out is untouched then.
template <typename T> bool parseNumber(std::string_view Text, T &Out) {
  static_assert(std::is_arithmetic_v<T>);
  T Value{};
  const char *End = Text.data() + Text.size();
  const auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Text.empty() || Ec != std::errc() || Ptr != End)
    return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(Value))
      return false;
  Out = Value;
  return true;
}

} // namespace genprove

#endif // GENPROVE_UTIL_PARSE_H
