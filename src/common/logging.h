/**
 * @file
 * Status-message and error-handling helpers (gem5-style).
 *
 *  - panic(): something happened that should never happen regardless
 *             of what the user does, i.e. an internal bug. Calls
 *             abort(). Errors a caller can handle are AnaheimError
 *             (status.h).
 *  - warn():  non-terminating note about questionable behaviour.
 *
 * Every message is routed through one serialized, timestamped sink
 * (each line carries seconds since process start) on stderr, so
 * messages from the limb-parallel workers never interleave mid-line.
 */

#ifndef ANAHEIM_COMMON_LOGGING_H
#define ANAHEIM_COMMON_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace anaheim {

namespace detail {

/** Stream-compose a message from a variadic pack. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

} // namespace anaheim

/** Internal-bug check: aborts with a message when something impossible
 *  happened. */
#define ANAHEIM_PANIC(...)                                                   \
    ::anaheim::detail::panicImpl(                                            \
        __FILE__, __LINE__, ::anaheim::detail::composeMessage(__VA_ARGS__))

/** Non-fatal warning about questionable behaviour. */
#define ANAHEIM_WARN(...)                                                    \
    ::anaheim::detail::warnImpl(::anaheim::detail::composeMessage(__VA_ARGS__))

/** Invariant check that survives in release builds. */
#define ANAHEIM_ASSERT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ANAHEIM_PANIC("assertion failed: " #cond " — ",                  \
                          ::anaheim::detail::composeMessage(__VA_ARGS__));   \
        }                                                                    \
    } while (0)

#endif // ANAHEIM_COMMON_LOGGING_H
