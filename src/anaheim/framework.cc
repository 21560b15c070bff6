#include "framework.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "runcontext.h"

namespace anaheim {

bool
timelineEntryLess(const GanttEntry &a, const GanttEntry &b)
{
    if (a.startNs != b.startNs)
        return a.startNs < b.startNs;
    if (a.device != b.device)
        return a.device < b.device;
    return a.phase < b.phase;
}

bool
timelineIsCanonical(const std::vector<GanttEntry> &timeline)
{
    for (size_t i = 1; i < timeline.size(); ++i) {
        if (timelineEntryLess(timeline[i], timeline[i - 1]))
            return false;
    }
    return true;
}

void
canonicalizeTimeline(std::vector<GanttEntry> &timeline)
{
    if (timelineIsCanonical(timeline))
        return;
    std::stable_sort(timeline.begin(), timeline.end(), timelineEntryLess);
    ANAHEIM_ASSERT(timelineIsCanonical(timeline), "timeline sort failed");
}

AnaheimConfig
AnaheimConfig::a100NearBank()
{
    AnaheimConfig config;
    config.gpu = GpuConfig::a100_80gb();
    config.library = LibraryProfile::cheddar();
    config.dram = DramConfig::hbm2A100();
    config.pim = PimConfig::nearBankA100();
    return config;
}

AnaheimConfig
AnaheimConfig::a100CustomHbm()
{
    AnaheimConfig config = a100NearBank();
    config.pim = PimConfig::customHbmA100();
    return config;
}

AnaheimConfig
AnaheimConfig::rtx4090NearBank()
{
    AnaheimConfig config;
    config.gpu = GpuConfig::rtx4090();
    config.library = LibraryProfile::cheddar();
    config.dram = DramConfig::gddr6xRtx4090();
    config.pim = PimConfig::nearBankRtx4090();
    return config;
}

AnaheimFramework::AnaheimFramework(const AnaheimConfig &config)
    : config_(config), gpu_(config.gpu, config.library),
      pim_(config.dram, config.pim)
{
    // The timing model samples fault events per op; a targeted fault
    // names one word of the functional datapath and would go unseen.
    ANAHEIM_CHECK(config_.resilience.targets.empty(), InvalidArgument,
                  "resilience.targets: targeted faults act only on the "
                  "word-level PimDataPath, not on the timing model");
}

const PimKernelModel &
AnaheimFramework::degradedPimModel(const PimConfig &degraded) const
{
    std::lock_guard<std::mutex> lock(degradedMutex_);
    std::unique_ptr<PimKernelModel> &model =
        degradedPims_[degraded.offlineBanks];
    if (!model) {
        PimConfig pim = config_.pim;
        pim.offlineBanks = degraded.offlineBanks;
        model = std::make_unique<PimKernelModel>(config_.dram, pim);
    }
    return *model;
}

PimOpcode
AnaheimFramework::opcodeFor(KernelType type)
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
      default:
        ANAHEIM_PANIC("kernel ", kernelTypeName(type),
                      " is not PIM-offloadable");
    }
}

RunResult
AnaheimFramework::execute(const OpSequence &seq) const
{
    OBS_SPAN("framework/execute");
    RunContext ctx(*this, seq);
    while (!ctx.done())
        ctx.step();
    RunResult result = ctx.finish();
    if (obs::tracingEnabled()) {
        const uint32_t run = obs::recordRunTimeline(seq.name, result);
        obs::publishRunMetrics(result, run);
    } else {
        obs::publishRunMetrics(result);
    }
    return result;
}

} // namespace anaheim
