/**
 * @file
 * End-to-end detect-and-recover on real ciphertext data: a CKKS HADD
 * executed limb-by-limb on the functional PIM unit under BER-driven
 * fault injection, with detection at the coherence write-back boundary
 * (ECC's uncorrectable latch, or the ciphertext checksum when ECC is
 * off) and recovery by replaying from the pristine inputs — the
 * functional analog of the framework's checkpoint rollback. The
 * recovered result must be bitwise identical to the fault-free run and
 * decrypt correctly.
 */

#include <gtest/gtest.h>

#include <complex>
#include <optional>

#include "ckks/encryptor.h"
#include "ckks/integrity.h"
#include "pim/functional.h"
#include "sim/ecc.h"
#include "sim/health.h"
#include "sim/readpath.h"

namespace anaheim {
namespace {

/** CKKS parameters whose primes all fit the PIM units' 28-bit bound. */
CkksParams
pimFriendlyParams()
{
    CkksParams params;
    params.n = 256;
    params.levels = 4;
    params.alpha = 2;
    params.logScale = 24;
    params.firstModulusBits = 27;
    return params;
}

class FunctionalRecoveryTest : public ::testing::Test
{
  protected:
    FunctionalRecoveryTest()
        : context_(pimFriendlyParams()), encoder_(context_),
          keygen_(context_, 91), encryptor_(context_, 92)
    {
        std::vector<std::complex<double>> u(encoder_.slots());
        std::vector<std::complex<double>> v(encoder_.slots());
        for (size_t i = 0; i < u.size(); ++i) {
            u[i] = {0.25 * std::cos(0.1 * i), 0.0};
            v[i] = {0.25 * std::sin(0.1 * i), 0.0};
        }
        expected_.resize(u.size());
        for (size_t i = 0; i < u.size(); ++i)
            expected_[i] = u[i] + v[i];
        ctU_.emplace(encryptor_.encrypt(
            encoder_.encode(u, context_.maxLevel()), keygen_.secretKey()));
        ctV_.emplace(encryptor_.encrypt(
            encoder_.encode(v, context_.maxLevel()), keygen_.secretKey()));
    }

    static PimVector
    toPim(const CoeffVector &limb)
    {
        return PimVector(limb.begin(), limb.end());
    }

    /** HADD on the PIM unit, limb by limb, through `path` when one is
     *  attached. Each (component, limb) pair gets its own fault-site
     *  limb coordinate, as distinct PIM rows would; `limbOffset`
     *  relocates the whole ciphertext to a different physical region
     *  (spare rows after a quarantine remap). */
    Ciphertext
    addOnPim(const Ciphertext &x, const Ciphertext &y, PimDataPath *path,
             size_t limbOffset = 0)
    {
        Ciphertext sum = x;
        const size_t limbCount = x.b.limbCount();
        for (size_t comp = 0; comp < 2; ++comp) {
            const Polynomial &px = comp ? x.a : x.b;
            const Polynomial &py = comp ? y.a : y.b;
            Polynomial &out = comp ? sum.a : sum.b;
            for (size_t limb = 0; limb < limbCount; ++limb) {
                PimFunctionalUnit unit(px.basis().prime(limb));
                unit.attachReadPath(path);
                if (path != nullptr)
                    path->setLimb(limbOffset + comp * limbCount + limb);
                const PimVector r = unit.add(toPim(px.limb(limb)),
                                             toPim(py.limb(limb)));
                out.limb(limb).assign(r.begin(), r.end());
            }
        }
        return sum;
    }

    static void
    expectBitwiseEqual(const Ciphertext &a, const Ciphertext &b)
    {
        ASSERT_EQ(a.b.limbCount(), b.b.limbCount());
        for (size_t limb = 0; limb < a.b.limbCount(); ++limb) {
            EXPECT_EQ(a.b.limb(limb), b.b.limb(limb)) << "b limb " << limb;
            EXPECT_EQ(a.a.limb(limb), b.a.limb(limb)) << "a limb " << limb;
        }
    }

    void
    expectDecryptsToSum(const Ciphertext &ct)
    {
        const CkksDecryptor decryptor(context_, keygen_.secretKey());
        const auto out = encoder_.decode(decryptor.decrypt(ct));
        for (size_t i = 0; i < expected_.size(); ++i)
            EXPECT_NEAR(out[i].real(), expected_[i].real(), 1e-4) << i;
    }

    CkksContext context_;
    CkksEncoder encoder_;
    KeyGenerator keygen_;
    CkksEncryptor encryptor_;
    std::optional<Ciphertext> ctU_, ctV_;
    std::vector<std::complex<double>> expected_;
};

TEST_F(FunctionalRecoveryTest,
       UncorrectableWriteBackFaultReplaysToExactResult)
{
    // Fault-free PIM run: the golden value the producer seals.
    const Ciphertext golden = addOnPim(*ctU_, *ctV_, nullptr);
    const CiphertextChecksum seal = sealCiphertext(golden);

    // BER placed so the first attempt sees a double-bit (uncorrectable)
    // event somewhere in the op's reads/write-backs with this seed,
    // while replays — which re-sample the transient faults under a new
    // epoch — soon come back clean.
    FaultConfig faults;
    faults.ber = 4e-4;
    faults.seed = 1;
    PimDataPath path(faults, /*eccEnabled=*/true);

    std::optional<Ciphertext> sum;
    std::optional<Ciphertext> corruptAttempt;
    size_t attempts = 0;
    for (attempts = 1; attempts <= 50; ++attempts) {
        path.clearUncorrectableSeen();
        sum.emplace(addOnPim(*ctU_, *ctV_, &path));
        // Write-back boundary: the detected-uncorrectable latch is the
        // signal the framework's retry/rollback policy keys on.
        if (!path.uncorrectableSeen())
            break;
        if (!corruptAttempt)
            corruptAttempt = sum;
        // "Roll back": inputs are the checkpoint and stay pristine;
        // the next epoch models the replayed segment.
        path.nextEpoch();
    }
    ASSERT_LE(attempts, 50u) << "no clean replay within the budget";

    // The fault was detected, not silently absorbed.
    ASSERT_TRUE(corruptAttempt.has_value())
        << "seed produced no uncorrectable event; test is vacuous";
    EXPECT_GT(path.counters().uncorrectable, 0u);
    EXPECT_GT(path.counters().corrected, 0u);
    EXPECT_EQ(path.counters().silent, 0u);

    // The poisoned attempt differs from the sealed value and the
    // ciphertext checksum backstop catches it too.
    const Status corruptStatus = verifyCiphertext(*corruptAttempt, seal);
    EXPECT_EQ(corruptStatus.code(), ErrorCode::DataCorruption);

    // The recovered result is bitwise the golden run, passes
    // verification, and decrypts to u + v.
    expectBitwiseEqual(*sum, golden);
    EXPECT_TRUE(verifyCiphertext(*sum, seal).ok());
    expectDecryptsToSum(*sum);
}

TEST_F(FunctionalRecoveryTest, ChecksumIsTheOnlyNetWithoutEcc)
{
    // With ECC off every fault is silent at the word boundary: the
    // per-limb rolling checksum at the write-back boundary is the only
    // detector left, and replay-from-inputs the only recovery.
    const Ciphertext golden = addOnPim(*ctU_, *ctV_, nullptr);
    const CiphertextChecksum seal = sealCiphertext(golden);

    FaultConfig faults;
    faults.ber = 1e-5;
    faults.seed = 3;
    PimDataPath path(faults, /*eccEnabled=*/false);

    std::optional<Ciphertext> sum;
    size_t mismatches = 0;
    size_t attempts = 0;
    for (attempts = 1; attempts <= 50; ++attempts) {
        sum.emplace(addOnPim(*ctU_, *ctV_, &path));
        if (verifyCiphertext(*sum, seal).ok())
            break;
        ++mismatches;
        path.nextEpoch();
    }
    ASSERT_LE(attempts, 50u) << "no clean replay within the budget";

    EXPECT_GT(mismatches, 0u);
    EXPECT_GT(path.counters().silent, 0u);
    EXPECT_EQ(path.counters().corrected, 0u); // nothing ever detected
    EXPECT_FALSE(path.uncorrectableSeen());
    expectBitwiseEqual(*sum, golden);
    expectDecryptsToSum(*sum);
}

TEST_F(FunctionalRecoveryTest,
       StuckAtSiteIsClassifiedPermanentAndRemappedToSpareRows)
{
    // The graceful-degradation ladder on real ciphertext data. A
    // stuck-at cell (a *permanent* fault) poisons the same words on
    // every replay — epoch bumps do not help, which is exactly how
    // the health monitor tells it from a transient. After the
    // permanent threshold the site is quarantined and the operands
    // are remapped to spare rows (a disjoint fault-site region);
    // the replay there must be bitwise the golden run.
    const Ciphertext golden = addOnPim(*ctU_, *ctV_, nullptr);
    const CiphertextChecksum seal = sealCiphertext(golden);

    // Two cells stuck at one in the physical region limb coordinate 0
    // maps to, on bits the stored codeword has clear — a guaranteed
    // detected-uncorrectable (double-bit) event on every read of that
    // word, independent of the replay epoch.
    const uint64_t codeword = SecDed3932::encode(
        static_cast<uint32_t>(ctU_->b.limb(0)[7]));
    uint64_t stuckMask = 0;
    int stuckBits = 0;
    for (unsigned bit = 0;
         bit < SecDed3932::kCodeBits && stuckBits < 2; ++bit) {
        if (((codeword >> bit) & 1) == 0) {
            stuckMask |= uint64_t{1} << bit;
            ++stuckBits;
        }
    }
    ASSERT_EQ(stuckBits, 2);
    FaultConfig faults;
    faults.targets.push_back(
        {0, operandWord(0, 7), stuckMask, FaultKind::StuckAtOne});
    PimDataPath path(faults, /*eccEnabled=*/true);

    HealthConfig healthConfig;
    healthConfig.enabled = true;
    healthConfig.permanentThreshold = 3;
    // One die group, one "bank" per mapped region, 8 lanes.
    HealthMonitor monitor(healthConfig, 1, 2, 8);
    const FaultSiteId site{FaultSiteId::Kind::Bank, 0, 0};
    const size_t kSpareOffset = 64; // remap target region

    std::optional<Ciphertext> sum;
    size_t failedReplays = 0;
    size_t attempts = 0;
    for (attempts = 1; attempts <= 10; ++attempts) {
        path.clearUncorrectableSeen();
        const size_t offset =
            monitor.isQuarantined(site) ? kSpareOffset : 0;
        sum.emplace(addOnPim(*ctU_, *ctV_, &path, offset));
        if (!path.uncorrectableSeen())
            break;
        ++failedReplays;
        monitor.recordError(site);
        path.nextEpoch(); // the replay a transient would survive
    }
    ASSERT_LE(attempts, 10u) << "remap never produced a clean run";

    // Replay alone never cleared the fault: it failed deterministically
    // exactly until the monitor quarantined the region.
    ASSERT_GT(failedReplays, 0u)
        << "stuck-at site produced no detected fault; test is vacuous";
    EXPECT_EQ(failedReplays, healthConfig.permanentThreshold);
    EXPECT_TRUE(monitor.isQuarantined(site));
    EXPECT_EQ(attempts, healthConfig.permanentThreshold + 1);

    // The remapped run is bitwise the golden value, passes the
    // ciphertext checksum, and decrypts to u + v.
    expectBitwiseEqual(*sum, golden);
    EXPECT_TRUE(verifyCiphertext(*sum, seal).ok());
    expectDecryptsToSum(*sum);
}

} // namespace
} // namespace anaheim
