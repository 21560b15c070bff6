/**
 * @file
 * Recoverable error reporting for library code.
 *
 * Library code never exits the process on bad input: a caller may want
 * to detect, report, or survive the condition (a resilient framework
 * retrying a corrupted PIM segment, a server rejecting one bad
 * request). It reports failure through a value type plus a typed
 * exception:
 *
 *  - ErrorCode / Status: a code + message pair for APIs that prefer to
 *    return errors (validation passes, capture helpers in tests).
 *  - AnaheimError: an exception carrying a Status, thrown by library
 *    code via ANAHEIM_RAISE / ANAHEIM_CHECK. Callers catch it and
 *    recover; CLI and bench entry points may let it terminate.
 *
 * ANAHEIM_PANIC/ANAHEIM_ASSERT (logging.h) remain for internal-bug
 * invariants that no caller could meaningfully handle.
 */

#ifndef ANAHEIM_COMMON_STATUS_H
#define ANAHEIM_COMMON_STATUS_H

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "logging.h"

namespace anaheim {

enum class ErrorCode {
    Ok = 0,
    /** Caller handed the library something malformed (bad trace, ragged
     *  BConv input, non-NTT-friendly modulus). */
    InvalidArgument,
    /** A finite resource ran out (bank rows, prime search range). */
    ResourceExhausted,
    /** Data failed an integrity check (uncorrectable ECC event). */
    DataCorruption,
};

/** Human-readable name of an error code ("InvalidArgument", ...). */
const char *errorCodeName(ErrorCode code);

/** A code + message pair; Ok carries an empty message. */
class Status
{
  public:
    Status() = default;
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status okStatus() { return Status(); }

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "InvalidArgument: <message>", or "Ok". */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/** Typed exception thrown by library code for recoverable failures. */
class AnaheimError : public std::runtime_error
{
  public:
    AnaheimError(ErrorCode code, const std::string &message)
        : std::runtime_error(message), code_(code)
    {
    }

    ErrorCode code() const { return code_; }
    Status status() const { return Status(code_, what()); }

  private:
    ErrorCode code_;
};

/**
 * Run a CLI/bench/example body under a recoverable-error guard:
 * AnaheimError escapes become a one-line "<program>: <Code>: <message>"
 * diagnostic on stderr and a nonzero exit instead of std::terminate
 * with a raw abort. Other std::exception escapes are reported the same
 * way (internal-bug invariants keep going through ANAHEIM_PANIC).
 *
 *   int main(int argc, char **argv) {
 *       return runGuardedMain("quickstart", [&] { ...; return 0; });
 *   }
 */
int runGuardedMain(const char *programName,
                   const std::function<int()> &body);

} // namespace anaheim

/** Throw an AnaheimError with a stream-composed message. */
#define ANAHEIM_RAISE(code, ...)                                             \
    throw ::anaheim::AnaheimError(                                           \
        ::anaheim::ErrorCode::code,                                          \
        ::anaheim::detail::composeMessage(__VA_ARGS__))

/** Validation check: throws AnaheimError when the condition fails.
 *  Unlike ANAHEIM_ASSERT this is for caller-recoverable conditions. */
#define ANAHEIM_CHECK(cond, code, ...)                                       \
    do {                                                                     \
        if (!(cond))                                                         \
            ANAHEIM_RAISE(code, __VA_ARGS__);                                \
    } while (0)

#endif // ANAHEIM_COMMON_STATUS_H
