#include "logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace anaheim {

namespace {

LogLevel
envLogLevel()
{
    const char *env = std::getenv("ANAHEIM_LOG_LEVEL");
    if (env == nullptr)
        return LogLevel::Info;
    if (std::strcmp(env, "silent") == 0 || std::strcmp(env, "0") == 0 ||
        std::strcmp(env, "none") == 0)
        return LogLevel::Silent;
    if (std::strcmp(env, "warn") == 0 || std::strcmp(env, "1") == 0)
        return LogLevel::Warn;
    if (std::strcmp(env, "info") == 0 || std::strcmp(env, "2") == 0)
        return LogLevel::Info;
    std::fprintf(stderr,
                 "warn: ignoring unknown ANAHEIM_LOG_LEVEL='%s' "
                 "(silent|warn|info)\n",
                 env);
    return LogLevel::Info;
}

std::atomic<int> gLevel{static_cast<int>(envLogLevel())};

std::chrono::steady_clock::time_point
processStart()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

// Touch the start time during static init so the first logged
// timestamp is near zero even if logging happens late.
[[maybe_unused]] const auto gStartAnchor = processStart();

/** One mutex serializes every emitted line: concurrent warn()/inform()
 *  from pool workers can never interleave partial lines. */
std::mutex &
sinkMutex()
{
    static std::mutex *mutex = new std::mutex(); // leaked: workers may
    // log during process teardown after static destructors start.
    return *mutex;
}

void
emitLine(std::FILE *stream, const char *prefix, const std::string &msg,
         const char *suffix)
{
    const double elapsedS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      processStart())
            .count();
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::fprintf(stream, "[%10.3fs] %s%s%s\n", elapsedS, prefix,
                 msg.c_str(), suffix);
    std::fflush(stream);
}

} // namespace

LogLevel
logLevel()
{
    return static_cast<LogLevel>(gLevel.load(std::memory_order_relaxed));
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    const std::string where =
        " (" + std::string(file) + ":" + std::to_string(line) + ")";
    emitLine(stderr, "panic: ", msg, where.c_str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    const std::string where =
        " (" + std::string(file) + ":" + std::to_string(line) + ")";
    emitLine(stderr, "fatal: ", msg, where.c_str());
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        emitLine(stderr, "warn: ", msg, "");
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Info)
        emitLine(stdout, "info: ", msg, "");
}

} // namespace detail
} // namespace anaheim
