#include <gtest/gtest.h>

#include "dram/bank.h"

namespace anaheim {
namespace {

DramTiming
testTiming()
{
    DramTiming timing;
    timing.tCkNs = 1.0;
    timing.tRCD = 10;
    timing.tRP = 12;
    timing.tRAS = 30;
    timing.tCCD = 2;
    timing.tWR = 16;
    timing.tRTP = 5;
    timing.tWTR = 8;
    return timing;
}

TEST(BankEngine, RespectsActToReadDelay)
{
    BankEngine bank(testTiming());
    const int64_t actAt = bank.issue(DramCommand::Act);
    const int64_t readAt = bank.issue(DramCommand::Rd);
    EXPECT_GE(readAt - actAt, 10) << "tRCD violated";
}

TEST(BankEngine, BackToBackReadsSpacedByTccd)
{
    BankEngine bank(testTiming());
    bank.issue(DramCommand::Act);
    const int64_t first = bank.issue(DramCommand::Rd);
    const int64_t second = bank.issue(DramCommand::Rd);
    EXPECT_GE(second - first, 2) << "tCCD violated";
}

TEST(BankEngine, PrechargeRespectsRasAndWr)
{
    BankEngine bank(testTiming());
    const int64_t actAt = bank.issue(DramCommand::Act);
    bank.issue(DramCommand::Wr);
    const int64_t preAt = bank.issue(DramCommand::Pre);
    EXPECT_GE(preAt - actAt, 30) << "tRAS violated";
    // And a new ACT waits tRP.
    const int64_t nextAct = bank.issue(DramCommand::Act);
    EXPECT_GE(nextAct - preAt, 12) << "tRP violated";
}

TEST(BankEngine, WriteRecoveryBeforePrecharge)
{
    BankEngine bank(testTiming());
    bank.issue(DramCommand::Act);
    // Push past tRAS with reads so tWR becomes the binding constraint.
    for (int i = 0; i < 20; ++i)
        bank.issue(DramCommand::Rd);
    const int64_t writeAt = bank.issue(DramCommand::Wr);
    const int64_t preAt = bank.issue(DramCommand::Pre);
    EXPECT_GE(preAt - writeAt, 16) << "tWR violated";
}

TEST(BankEngine, ActivateRowHandlesOpenRow)
{
    BankEngine bank(testTiming());
    bank.activateRow();
    EXPECT_TRUE(bank.rowOpen());
    bank.activateRow(); // implicit precharge
    EXPECT_EQ(bank.counts().acts, 2u);
    EXPECT_EQ(bank.counts().pres, 1u);
}

TEST(BankEngineDeath, ReadOnPrechargedBankPanics)
{
    BankEngine bank(testTiming());
    EXPECT_DEATH(bank.issue(DramCommand::Rd), "precharged");
}

TEST(DramConfig, PresetsMatchTableIII)
{
    const auto a100 = DramConfig::hbm2A100();
    EXPECT_EQ(a100.dies, 40u);
    EXPECT_EQ(a100.banksPerDie, 64u);
    EXPECT_NEAR(a100.externalBwGBs, 1802.0, 1.0);
    const auto rtx = DramConfig::gddr6xRtx4090();
    EXPECT_EQ(rtx.dies, 12u);
    EXPECT_EQ(rtx.banksPerDie, 32u);
    EXPECT_NEAR(rtx.externalBwGBs, 939.0, 1.0);
    // 256-bit chunks, 8Kb rows (§VI-B).
    EXPECT_EQ(a100.chunkBytes, 32u);
    EXPECT_EQ(a100.chunksPerRow(), 32u);
}


TEST(BankEngine, RefreshStallsAccrueOverLongStreams)
{
    DramTiming timing = testTiming();
    timing.tREFI = 200;
    timing.tRFC = 50;
    BankEngine bank(timing);
    bank.issue(DramCommand::Act);
    for (int i = 0; i < 1000; ++i)
        bank.issue(DramCommand::Rd);
    // 1000 reads at tCCD=2 span ~2000 cycles -> ~10+ refresh windows,
    // each stealing tRFC.
    EXPECT_GT(bank.refreshes(), 8u);
    EXPECT_GE(bank.cycle(),
              static_cast<int64_t>(2000 + bank.refreshes() * 50));
}

TEST(BankEngine, ShortBurstsSeeNoRefresh)
{
    BankEngine bank(testTiming()); // tREFI = 5900 default
    bank.issue(DramCommand::Act);
    for (int i = 0; i < 16; ++i)
        bank.issue(DramCommand::Rd);
    EXPECT_EQ(bank.refreshes(), 0u);
}

} // namespace
} // namespace anaheim

