// Strict numeric option parsing shared by the command-line tools.
//
// std::stoul aborts the program on junk (an uncaught invalid_argument)
// and strtoul without an end-pointer check reads "abc" as 0 and "4x" as
// 4.  parse_number accepts only a whole, in-range, unsigned number and
// otherwise prints one line naming the flag and the value and exits 2,
// the tools' usage-error status.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace hlcs::cli {

/// Parse `text` (the value given to `flag`) as an unsigned T.  `base`
/// follows strtoull: 10 for decimal, 0 to also accept 0x hex and 0
/// octal prefixes.
template <typename T = std::uint64_t>
T parse_number(const char* flag, const char* text, int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, base);
  // strtoull skips leading blanks and negates a leading '-'; neither is
  // a count, so the first character must already be a digit.
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "error: %s expects a non-negative number, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return static_cast<T>(v);
}

}  // namespace hlcs::cli
