/**
 * @file
 * sim-paper: the Fig. 8 job list plus the Fig. 9 buffer-size points,
 * one AnaheimFramework::execute per job, run back to back on one thread
 * in seed-shuffled order, and the probe of the simulator layers under it
 * (trace, anaheim, gpu, pim, dram, obs attribution).
 *
 * Jobs: the six makeAllWorkloads() traces x the three Table III configs
 * x {GPU-only, Anaheim}, skipping the CNNs on the 24 GB RTX 4090 as
 * bench_fig8_workloads does, plus the Boot trace on A100 near-bank at
 * each buffer size B in {4, 8, 16, 32, 64}. Runs are whole passes over
 * the list, so every run prices the same work.
 */

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "anaheim/planner.h"
#include "anaheim/runcontext.h"
#include "anaheim/workloads.h"
#include "bench.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using namespace anaheim;

struct Job {
    std::string name;
    const OpSequence *trace = nullptr;
    const AnaheimFramework *framework = nullptr;
    /** One of the three Table III configs running the Boot trace: the
     *  jobs the RunContext step probe replays. */
    bool stepProbe = false;
};

/** Traces, frameworks and the job list. `full` builds the sim-paper
 *  list; otherwise the reduced probe list (Boot on A100 near-bank,
 *  GPU-only and Anaheim). */
struct SimSweep {
    explicit SimSweep(bool full) : traces(makeAllWorkloads())
    {
        const struct {
            const char *name;
            AnaheimConfig config;
        } configs[] = {
            {"A100-NB", AnaheimConfig::a100NearBank()},
            {"A100-cHBM", AnaheimConfig::a100CustomHbm()},
            {"4090-NB", AnaheimConfig::rtx4090NearBank()},
        };
        const size_t configCount = full ? 3 : 1;
        for (size_t c = 0; c < configCount; ++c) {
            AnaheimConfig gpuOnly = configs[c].config;
            gpuOnly.pimEnabled = false;
            const AnaheimFramework *base = addFramework(gpuOnly);
            const AnaheimFramework *pim = addFramework(configs[c].config);
            for (const auto &[info, seq] : traces) {
                const std::string workload = info.name;
                if (!full && workload != "Boot")
                    continue;
                // Section VII-B / Table V: both CNNs exceed 24 GB.
                if (configs[c].config.dram.capacityBytes < 30e9 &&
                    (workload == "ResNet20" || workload == "ResNet18-AESPA"))
                    continue;
                const bool boot = workload == "Boot";
                const std::string prefix =
                    workload + "/" + configs[c].name + "/";
                jobs.push_back({prefix + "GPU", &seq, base, boot});
                jobs.push_back({prefix + "Anaheim", &seq, pim, boot});
            }
        }
        if (!full)
            return;
        for (const size_t b : {4u, 8u, 16u, 32u, 64u}) {
            AnaheimConfig config = AnaheimConfig::a100NearBank();
            config.pim.bufferEntries = b;
            jobs.push_back({"Boot/A100-NB/B=" + std::to_string(b),
                            &traces.front().second, addFramework(config),
                            false});
        }
    }

    const AnaheimFramework *
    addFramework(const AnaheimConfig &config)
    {
        frameworks.push_back(std::make_unique<AnaheimFramework>(config));
        return frameworks.back().get();
    }

    std::vector<std::pair<WorkloadInfo, OpSequence>> traces;
    std::vector<std::unique_ptr<AnaheimFramework>> frameworks;
    std::vector<Job> jobs;
};

/** Totals of one pass over the job list. */
struct PassTotals {
    double simulatedNs = 0.0;
    double energyPj = 0.0;
    /** Trace kernels and execute() host seconds of the jobs whose
     *  output checks passed. */
    double kernels = 0.0;
    double seconds = 0.0;
    double gpuKernels = 0.0;
    double pimInstructions = 0.0;
    /** Per-job result digests, in job-list order. */
    std::vector<uint64_t> digests;
    /** obs::buildAttribution host time per job, seconds. */
    std::vector<double> attributionSeconds;
};

uint64_t
digestOf(const RunResult &r)
{
    Digest d;
    d.add(r.totalNs);
    d.add(r.energyPj);
    d.add(r.gpuDramBytes);
    d.add(r.pimInternalBytes);
    d.add(r.pimCapacityFraction);
    d.add(static_cast<uint64_t>(r.pimOffline));
    const ResilienceStats &s = r.resilience;
    for (const uint64_t v :
         {s.faultyWords, s.eccCorrected, s.eccUncorrectable, s.silentErrors,
          s.pimRetries, s.gpuFallbacks, s.laneFaults, s.checksumChecks,
          s.checksumMismatches, s.checkpoints, s.rollbacks,
          s.replayedSegments, s.unrecovered, s.permanentFaultyWords,
          s.quarantinedBanks, s.migrations})
        d.add(v);
    for (const auto &[category, ns] : r.timeNsByCategory) {
        d.add(category);
        d.add(ns);
    }
    for (const GanttEntry &e : r.timeline) {
        d.add(e.phase);
        d.add(e.device);
        d.add(static_cast<uint64_t>(e.cls));
        d.add(e.startNs);
        d.add(e.endNs);
        d.add(e.energyPj);
        d.add(static_cast<uint64_t>(e.bound));
    }
    return d.value();
}

/** "" when obs::buildAttribution's category totals reproduce
 *  timeNsByCategory, else the first mismatching category. */
std::string
attributionMismatch(const obs::AttributionReport &report,
                    const RunResult &result)
{
    const auto totals = report.categoryTotalsNs();
    if (totals.size() != result.timeNsByCategory.size())
        return "attribution category set differs from timeNsByCategory";
    for (const auto &[category, ns] : result.timeNsByCategory) {
        const auto it = totals.find(category);
        if (it == totals.end() ||
            std::abs(it->second - ns) > 1e-9 * std::max(1.0, std::abs(ns)))
            return "attribution total differs for " + category;
    }
    return "";
}

uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** Drop recorded spans while tracing: execute() records every simulated
 *  timeline, and the full job list's would not fit in memory. */
void
dropRecordedSpans()
{
    if (obs::tracingEnabled())
        obs::TraceCollector::global().clear();
}

/**
 * Execute every job once in `order`, timing each execute() call and
 * checking its result untimed. `sweep()` is asked for the job list
 * before every job, since `afterJob` (given the job's host seconds) may
 * rebuild it. `dropSpans` empties the trace collector around every job.
 */
PassTotals
runPass(const std::function<const SimSweep &()> &sweep,
        const std::vector<size_t> &order,
        const std::vector<uint64_t> *previous, Report &report,
        std::vector<double> &jobSeconds,
        const std::function<void(double)> &afterJob, bool dropSpans)
{
    PassTotals totals;
    totals.digests.assign(order.size(), 0);
    const uint64_t gpuBefore = counterValue("gpu.kernels");
    const uint64_t pimBefore = counterValue("pim.model.instructions");
    for (const size_t j : order) {
        const Job &job = sweep().jobs[j];
        if (dropSpans)
            dropRecordedSpans();
        ++report.attempted;
        double t = 0.0;
        try {
            RunResult result;
            t = timeIt(
                [&] { result = job.framework->execute(*job.trace); });
            obs::AttributionReport attribution;
            totals.attributionSeconds.push_back(timeIt([&] {
                OBS_SPAN("perfbench/obs/attribution");
                attribution = obs::buildAttribution(result);
            }));
            const uint64_t digest = digestOf(result);
            totals.digests[j] = digest;
            totals.simulatedNs += result.totalNs;
            totals.energyPj += result.energyPj;
            const std::string mismatch =
                attributionMismatch(attribution, result);
            if (!timelineIsCanonical(result.timeline)) {
                report.fail(job.name + ": timeline not canonical");
            } else if (!mismatch.empty()) {
                report.fail(job.name + ": " + mismatch);
            } else if (previous != nullptr && (*previous)[j] != digest) {
                report.fail(job.name + ": RunResult differs between passes");
            } else {
                jobSeconds.push_back(t);
                totals.kernels += static_cast<double>(job.trace->ops.size());
                totals.seconds += t;
            }
        } catch (const AnaheimError &e) {
            report.fail(job.name + ": AnaheimError: " + e.what());
        }
        afterJob(t);
    }
    if (dropSpans)
        dropRecordedSpans();
    totals.gpuKernels =
        static_cast<double>(counterValue("gpu.kernels") - gpuBefore);
    totals.pimInstructions = static_cast<double>(
        counterValue("pim.model.instructions") - pimBefore);
    return totals;
}

/** Deterministic outputs of a pass, seed-independent (job-list order). */
void
addPassCounts(std::map<std::string, double> &out, const PassTotals &t)
{
    Digest sweep;
    for (const uint64_t d : t.digests)
        sweep.add(d);
    out["anaheim.simulated_ms"] = t.simulatedNs * 1e-6;
    out["anaheim.simulated_mj"] = t.energyPj * 1e-9;
    out["anaheim.sweep_digest"] = digestValue(sweep.value());
    out["gpu.kernels"] = t.gpuKernels;
    out["pim.instructions"] = t.pimInstructions;
}

PimOpcode
opcodeFor(KernelType type)
{
    switch (type) {
      case KernelType::EwMove: return PimOpcode::Move;
      case KernelType::EwAdd: return PimOpcode::Add;
      case KernelType::EwSub: return PimOpcode::Sub;
      case KernelType::EwMult: return PimOpcode::Mult;
      case KernelType::EwMac: return PimOpcode::Mac;
      case KernelType::EwPMult: return PimOpcode::PMult;
      case KernelType::EwPMac: return PimOpcode::PMac;
      case KernelType::EwCAdd: return PimOpcode::CAdd;
      case KernelType::EwCMult: return PimOpcode::CMult;
      case KernelType::EwCMac: return PimOpcode::CMac;
      case KernelType::EwTensor: return PimOpcode::Tensor;
      case KernelType::EwTensorSq: return PimOpcode::TensorSq;
      case KernelType::EwModDownEp: return PimOpcode::ModDownEp;
      case KernelType::EwPAccum: return PimOpcode::PAccum;
      case KernelType::EwCAccum: return PimOpcode::CAccum;
      default: return PimOpcode::Move;
    }
}

/** The per-layer simulator probes over a sweep's jobs, after a traced
 *  pass produced `pass`. */
void
probeSweep(const Options &opts, const SimSweep &sweep,
           const PassTotals &pass, Report &report)
{
    auto &layers = report.layers;
    addPassCounts(layers, pass);
    layers["obs.attribution_ms"] = mean(pass.attributionSeconds) * 1e3;

    // trace: the builder calls behind makeAllWorkloads().
    double kernels = 0.0;
    for (const auto &[info, seq] : sweep.traces)
        kernels += static_cast<double>(seq.ops.size());
    layers["trace.kernels"] = kernels;
    layers["trace.build_ms"] = medianTime(opts.quick ? 1 : 3, [] {
        OBS_SPAN("perfbench/trace/build");
        keep(makeAllWorkloads());
    }) * 1e3;

    std::vector<double> planSeconds, gpuSeconds;
    double gpuOps = 0.0, pimSeconds = 0.0, pimOps = 0.0, commands = 0.0;
    double stepSeconds = 0.0, steps = 0.0;
    std::vector<double> finishSeconds;
    for (const Job &job : sweep.jobs) {
        const AnaheimConfig &config = job.framework->config();
        const OpSequence &seq = *job.trace;
        if (job.stepProbe) {
            // anaheim: a hand loop of RunContext::step, then finish().
            RunContext ctx(*job.framework, seq);
            stepSeconds += timeIt([&] {
                OBS_SPAN("perfbench/anaheim/step_loop");
                while (!ctx.done()) {
                    ctx.step();
                    steps += 1.0;
                }
            });
            finishSeconds.push_back(timeIt([&] {
                OBS_SPAN("perfbench/anaheim/finish");
                keep(ctx.finish());
            }));
        }
        if (!config.pimEnabled) {
            // gpu: the roofline price of every op of a GPU-only job.
            const GpuModel gpu(config.gpu, config.library);
            gpuSeconds.push_back(timeIt([&] {
                OBS_SPAN("perfbench/gpu/price");
                for (const KernelOp &op : seq.ops)
                    keep(gpu.run(op));
            }));
            gpuOps += static_cast<double>(seq.ops.size());
            continue;
        }
        // anaheim planner, then pim/dram: every PIM op of the job
        // priced through PimKernelModel::execute.
        const PimMemoryPlanner planner(config.dram, config.pim);
        planSeconds.push_back(timeIt([&] {
            OBS_SPAN("perfbench/anaheim/plan");
            keep(planner.plan(seq));
        }));
        const PimKernelModel pim(config.dram, config.pim);
        pimSeconds += timeIt([&] {
            OBS_SPAN("perfbench/pim/price");
            for (const KernelOp &op : seq.ops) {
                const PimOpcode opcode = opcodeFor(op.type);
                if (!op.pimEligible ||
                    !pimInstrSupported(opcode, op.fanIn,
                                       config.pim.bufferEntries))
                    continue;
                const PimExecStats stats =
                    pim.execute(opcode, op.fanIn, op.limbs, op.n);
                commands += static_cast<double>(
                    stats.commands.acts + stats.commands.reads +
                    stats.commands.writes + stats.commands.pres);
                pimOps += 1.0;
            }
        });
    }
    layers["anaheim.plan_ms"] = mean(planSeconds) * 1e3;
    layers["anaheim.step_ns"] = steps > 0.0 ? stepSeconds * 1e9 / steps : 0.0;
    layers["anaheim.finish_ms"] = mean(finishSeconds) * 1e3;
    double gpuTotal = 0.0;
    for (const double s : gpuSeconds)
        gpuTotal += s;
    layers["gpu.price_ns_per_kernel"] =
        gpuOps > 0.0 ? gpuTotal * 1e9 / gpuOps : 0.0;
    layers["pim.price_us_per_instr"] =
        pimOps > 0.0 ? pimSeconds * 1e6 / pimOps : 0.0;
    layers["dram.commands_priced"] = commands;
    layers["dram.ns_per_command"] =
        commands > 0.0 ? pimSeconds * 1e9 / commands : 0.0;
}

} // namespace

void
runSimPaper(const Options &opts, Report &report)
{
    // --quick (the self-test) runs the reduced job list.
    SetupTimer<SimSweep, bool> setup(opts, !opts.quick);
    const std::vector<size_t> order =
        shuffledOrder(setup.state().jobs.size(), opts.seed);
    const auto sweep = [&]() -> const SimSweep & { return setup.state(); };
    const auto afterJob = [&](double t) { setup.afterOperation(t); };

    // A first, untimed pass lets the allocator grow to the largest
    // timelines: a cold pass runs its jobs ~30% slower, and whether a
    // run held one or two passes would otherwise move the medians. Its
    // results are the reference the measured passes must reproduce.
    const double start = nowSeconds();
    std::vector<double> warmupSeconds;
    const PassTotals warmup =
        runPass(sweep, order, nullptr, report, warmupSeconds, afterJob, true);
    double lastPass = 0.0;
    std::vector<double> jobSeconds;
    std::vector<double> passRates;
    std::vector<PassTotals> passes;
    do {
        const double passStart = nowSeconds();
        passes.push_back(runPass(sweep, order, &warmup.digests, report,
                                 jobSeconds, afterJob, true));
        passRates.push_back(passes.back().kernels / passes.back().seconds);
        lastPass = nowSeconds() - passStart;
    } while (nowSeconds() - start + lastPass <= opts.seconds);
    setup.report(report);
    reportOps(report, jobSeconds, passRates);
    addPassCounts(report.counts, warmup);
    double traceKernels = 0.0;
    for (const auto &[info, seq] : setup.state().traces)
        traceKernels += static_cast<double>(seq.ops.size());
    report.counts["trace.kernels"] = traceKernels;

    if (opts.traced)
        probeSweep(opts, setup.state(), passes.front(), report);
}

void
probeSimLayers(const Options &opts, Report &report)
{
    OBS_SPAN("perfbench/probe/sim");
    const SimSweep sweep(false);
    std::vector<double> jobSeconds;
    const PassTotals pass = runPass(
        [&]() -> const SimSweep & { return sweep; },
        shuffledOrder(sweep.jobs.size(), opts.seed), nullptr, report,
        jobSeconds, [](double) {}, false);
    probeSweep(opts, sweep, pass, report);
}

} // namespace perfbench
