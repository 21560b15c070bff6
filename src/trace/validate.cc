#include "validate.h"

#include "common/status.h"

namespace anaheim {

std::vector<TraceIssue>
validateTrace(const OpSequence &seq)
{
    std::vector<TraceIssue> issues;
    auto report = [&](size_t i, std::string text) {
        issues.push_back({i, std::move(text)});
    };

    if (seq.n == 0)
        report(0, "sequence has no ring degree");
    for (size_t i = 0; i < seq.ops.size(); ++i) {
        const KernelOp &op = seq.ops[i];
        if (op.n == 0)
            report(i, "op has zero ring degree");
        if (op.limbs == 0)
            report(i, "op processes zero limbs");
        if (op.n != 0 && seq.n != 0 && op.n != seq.n)
            report(i, "op ring degree differs from the sequence's");
        if (op.fanIn == 0)
            report(i, "zero fan-in");
        if (op.pimEligible &&
            kernelClass(op.type) != KernelClass::ElementWise)
            report(i, "non-element-wise op marked PIM-eligible");
        if (op.type != KernelType::Automorphism &&
            kernelClass(op.type) == KernelClass::ElementWise) {
            if (op.reads.empty() && op.type != KernelType::EwCAdd)
                report(i, "element-wise op reads nothing");
            if (op.writes.empty())
                report(i, "element-wise op writes nothing");
        }
        for (const auto &operand : op.reads) {
            if (operand.limbs == 0)
                report(i, "read operand with zero limbs");
        }
        for (const auto &operand : op.writes) {
            if (operand.limbs == 0)
                report(i, "write operand with zero limbs");
        }
        if ((op.type == KernelType::EwPAccum ||
             op.type == KernelType::EwCAccum) &&
            op.fanIn < 1)
            report(i, "accumulation with no terms");
    }
    return issues;
}

void
checkTrace(const OpSequence &seq)
{
    const auto issues = validateTrace(seq);
    if (!issues.empty())
        ANAHEIM_RAISE(InvalidArgument, "invalid trace '", seq.name,
                      "': op ", issues[0].opIndex, ": ",
                      issues[0].description, " (", issues.size(),
                      " issue(s) total)");
}

} // namespace anaheim
