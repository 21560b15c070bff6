#include "arrival.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace anaheim::serve {

std::vector<std::vector<double>>
buildArrivals(const ServeConfig &serve)
{
    ANAHEIM_ASSERT(serve.streams > 0, "serving needs at least 1 stream");
    ANAHEIM_ASSERT(serve.offeredRps > 0.0,
                   "open-loop arrivals need a positive offered rate");
    std::vector<std::vector<double>> arrivals(
        serve.streams, std::vector<double>(serve.requestsPerStream));
    const double perStreamRps =
        serve.offeredRps / static_cast<double>(serve.streams);
    const double meanGapNs = 1e9 / perStreamRps;
    for (size_t s = 0; s < serve.streams; ++s) {
        // Per-stream splitmix-style seed mix: distinct, reproducible
        // streams from one user-facing seed.
        Rng rng(serve.arrivalSeed +
                (static_cast<uint64_t>(s) + 1) * 0x9E3779B97F4A7C15ULL);
        double t = 0.0;
        for (size_t k = 0; k < serve.requestsPerStream; ++k) {
            // Inverse-CDF exponential; 1 - u keeps log() away from 0.
            t += -meanGapNs * std::log(1.0 - rng.uniformReal());
            arrivals[s][k] = t;
        }
    }
    return arrivals;
}

} // namespace anaheim::serve
