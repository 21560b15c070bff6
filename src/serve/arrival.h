/**
 * @file
 * Open-loop arrival generation for the serving scheduler: each client
 * stream gets a pre-generated, sorted list of request arrival times so
 * the offered load is a pure function of (ServeConfig) and never of the
 * schedule. Poisson arrivals draw exponential inter-arrival gaps from
 * the stream's own deterministic RNG stream.
 */

#ifndef ANAHEIM_SERVE_ARRIVAL_H
#define ANAHEIM_SERVE_ARRIVAL_H

#include <vector>

#include "serve/config.h"

namespace anaheim::serve {

/**
 * Arrival timestamps (ns, ascending) for every stream:
 * `arrivals[s][k]` is when request k of stream s enters the system.
 * Stream s draws `requestsPerStream` exponential gaps at rate
 * `offeredRps / streams` from Rng(arrivalSeed mixed with s), so the
 * aggregate offered load is `offeredRps` and every stream's schedule is
 * independent of every other's.
 */
std::vector<std::vector<double>> buildArrivals(const ServeConfig &serve);

} // namespace anaheim::serve

#endif // ANAHEIM_SERVE_ARRIVAL_H
