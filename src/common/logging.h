/**
 * @file
 * Status-message and error-handling helpers (gem5-style).
 *
 * Two error functions with distinct purposes:
 *  - panic():  something happened that should never happen regardless of
 *              what the user does, i.e. an internal bug. Calls abort().
 *  - fatal():  the run cannot continue due to a user-visible condition
 *              (bad configuration, invalid arguments). Calls exit(1).
 * Plus non-terminating status helpers warn() and inform().
 *
 * Every message is routed through one serialized, timestamped sink
 * (each line carries seconds since process start), so messages from
 * the limb-parallel workers never interleave mid-line. Verbosity is
 * controlled by a level — Silent < Warn < Info — whose initial value
 * comes from the ANAHEIM_LOG_LEVEL environment variable ("silent" /
 * "warn" / "info", or 0 / 1 / 2; default Info).
 */

#ifndef ANAHEIM_COMMON_LOGGING_H
#define ANAHEIM_COMMON_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace anaheim {

/** Message severities the sink filters on (panic/fatal always print). */
enum class LogLevel {
    Silent = 0, ///< suppress warn() and inform()
    Warn = 1,   ///< warnings only
    Info = 2,   ///< warnings + informational status (default)
};

/** Current sink threshold. */
LogLevel logLevel();

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
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

} // namespace anaheim

/** Internal-bug check: aborts with a message when something impossible
 *  happened. */
#define ANAHEIM_PANIC(...)                                                   \
    ::anaheim::detail::panicImpl(                                            \
        __FILE__, __LINE__, ::anaheim::detail::composeMessage(__VA_ARGS__))

/** User-error exit: terminates with exit(1) and a message. */
#define ANAHEIM_FATAL(...)                                                   \
    ::anaheim::detail::fatalImpl(                                            \
        __FILE__, __LINE__, ::anaheim::detail::composeMessage(__VA_ARGS__))

/** Non-fatal warning about questionable behaviour. */
#define ANAHEIM_WARN(...)                                                    \
    ::anaheim::detail::warnImpl(::anaheim::detail::composeMessage(__VA_ARGS__))

/** Informative status message (suppressed when verbosity is off). */
#define ANAHEIM_INFORM(...)                                                  \
    ::anaheim::detail::informImpl(                                           \
        ::anaheim::detail::composeMessage(__VA_ARGS__))

/** Invariant check that survives in release builds. */
#define ANAHEIM_ASSERT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ANAHEIM_PANIC("assertion failed: " #cond " — ",                  \
                          ::anaheim::detail::composeMessage(__VA_ARGS__));   \
        }                                                                    \
    } while (0)

#endif // ANAHEIM_COMMON_LOGGING_H
