#include "logging.h"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace anaheim {

namespace {

std::chrono::steady_clock::time_point
processStart()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

// Touch the start time during static init so the first logged
// timestamp is near zero even if logging happens late.
[[maybe_unused]] const auto gStartAnchor = processStart();

/** One mutex serializes every emitted line: concurrent warn()s
 *  from pool workers can never interleave partial lines. */
std::mutex &
sinkMutex()
{
    static std::mutex *mutex = new std::mutex(); // leaked: workers may
    // log during process teardown after static destructors start.
    return *mutex;
}

void
emitLine(const char *prefix, const std::string &msg, const char *suffix)
{
    const double elapsedS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      processStart())
            .count();
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::fprintf(stderr, "[%10.3fs] %s%s%s\n", elapsedS, prefix,
                 msg.c_str(), suffix);
    std::fflush(stderr);
}

} // namespace

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    const std::string where =
        " (" + std::string(file) + ":" + std::to_string(line) + ")";
    emitLine("panic: ", msg, where.c_str());
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    emitLine("warn: ", msg, "");
}

} // namespace detail
} // namespace anaheim
