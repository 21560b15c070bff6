/**
 * @file
 * Small helpers for formatting byte counts, times and ratios in the
 * report printers shared by benches and examples.
 */

#ifndef ANAHEIM_COMMON_UNITS_H
#define ANAHEIM_COMMON_UNITS_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace anaheim {

/** Format a byte count as e.g. "136.0MB" or "1.20GB". */
std::string formatBytes(double bytes);

/** Format a duration in seconds as e.g. "29.3ms" or "1.22s". */
std::string formatSeconds(double seconds);

/** Format energy in joules as e.g. "8.1mJ" or "3.2J". */
std::string formatJoules(double joules);

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

} // namespace anaheim

#endif // ANAHEIM_COMMON_UNITS_H
