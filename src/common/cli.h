/**
 * @file
 * Strict command-line number parsing shared by the bench harness and
 * the examples.  A value must parse whole: trailing junk ("2x"), a
 * sign where none is allowed, an empty string or overflow is a fatal
 * user error (exit 1), never truncated or silently defaulted.
 */

#ifndef FOCUS_COMMON_CLI_H
#define FOCUS_COMMON_CLI_H

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>

#include "common/logging.h"

namespace focus
{

/**
 * Parse the whole of @p text (the value part of @p arg) as a positive
 * int; anything else — trailing junk, a sign, overflow — is fatal.
 */
inline int
parsePositiveInt(const char *text, const char *arg, const char *what)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > INT_MAX) {
        fatal("invalid %s in '%s' (want a positive integer)", what,
              arg);
    }
    return static_cast<int>(v);
}

/**
 * Parse the whole of @p text (the value part of @p arg) as a
 * non-negative 64-bit integer; a sign, trailing junk or overflow is
 * fatal.
 */
inline uint64_t
parseNonNegativeU64(const char *text, const char *arg, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0' ||
        errno == ERANGE) {
        fatal("invalid %s in '%s' (want a non-negative integer)", what,
              arg);
    }
    return static_cast<uint64_t>(v);
}

/**
 * Fatal when @p argv holds more than @p max_positional arguments
 * after the program name; @p usage names the accepted ones.
 */
inline void
rejectExtraArgs(int argc, char **argv, int max_positional,
                const char *usage)
{
    if (argc - 1 > max_positional) {
        fatal("unexpected extra argument '%s' (usage: %s %s)",
              argv[max_positional + 1], argv[0], usage);
    }
}

} // namespace focus

#endif // FOCUS_COMMON_CLI_H
