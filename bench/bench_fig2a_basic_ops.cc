/**
 * Fig. 2a: execution-time breakdown of the basic CKKS functions (HADD,
 * PMULT, HMULT, HROT) on A100 80GB under Phantom / 100x / Cheddar.
 */

#include <cstdio>

#include "anaheim/framework.h"
#include "bench_util.h"
#include "trace/builders.h"

using namespace anaheim;

namespace {

double
timeOf(const OpSequence &seq, const LibraryProfile &library)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.library = library;
    config.pimEnabled = false;
    return AnaheimFramework(config).execute(seq).totalNs * 1e-6; // ms
}

} // namespace

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 2a — basic CKKS function times on A100 80GB "
                  "(N=2^16, L=54, alpha=14)");

    const TraceParams params;
    const struct {
        const char *name;
        OpSequence seq;
    } functions[] = {
        {"HADD", buildHAdd(params)},
        {"PMULT", buildPMult(params)},
        {"HMULT", buildHMult(params)},
        {"HROT", buildHRot(params)},
    };

    bench::Table table(report, {
        {"function", "Func", "%-6s"},
        {"phantom_ms", "Phantom", "%10.3fms"},
        {"lib100x_ms", "100x", "%10.3fms"},
        {"cheddar_ms", "Cheddar", "%10.3fms"},
        {"cheddar_speedup", "Cheddar vs Phantom", "%17.2fx"},
    });
    for (const auto &fn : functions) {
        const double phantom = timeOf(fn.seq, LibraryProfile::phantom());
        const double cheddar = timeOf(fn.seq, LibraryProfile::cheddar());
        table.row({fn.name, phantom,
                   timeOf(fn.seq, LibraryProfile::lib100x()), cheddar,
                   phantom / cheddar});
    }
    std::printf("\n");
    bench::note("paper: Cheddar 1.79x (HMULT) / 1.73x (HROT) faster than "
                "Phantom, driven by 1.80-1.81x faster (I)NTT; HADD/PMULT "
                "are bandwidth-bound and library-insensitive");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig2a_basic_ops", argc, argv, run);
}
