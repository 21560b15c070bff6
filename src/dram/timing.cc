#include "timing.h"

namespace anaheim {

DramConfig
DramConfig::hbm2A100()
{
    DramConfig config;
    config.name = "HBM2-A100";
    config.dies = 40; // 5 stacks x 8-Hi
    config.banksPerDie = 64;
    config.rowBytes = 1024;
    config.chunkBytes = 32;
    config.externalBwGBs = 1802.0;
    config.capacityBytes = 80e9;
    // HBM2e @ ~1.5 GHz command clock.
    config.timing.tCkNs = 0.66;
    config.timing.tRCD = 21;
    config.timing.tRP = 21;
    config.timing.tRAS = 50;
    config.timing.tCCD = 2;
    config.timing.tWR = 24;
    config.timing.tRTP = 8;
    config.timing.tWTR = 12;
    return config;
}

DramConfig
DramConfig::gddr6xRtx4090()
{
    DramConfig config;
    config.name = "GDDR6X-RTX4090";
    config.dies = 12;
    config.banksPerDie = 32;
    config.rowBytes = 1024;
    config.chunkBytes = 32;
    config.externalBwGBs = 939.0;
    config.capacityBytes = 24e9;
    // GDDR6X @ ~1.31 GHz command clock; longer relative row timings and
    // a costlier off-chip interface than HBM.
    config.timing.tCkNs = 0.76;
    config.timing.tRCD = 24;
    config.timing.tRP = 24;
    config.timing.tRAS = 52;
    config.timing.tCCD = 2;
    config.timing.tWR = 28;
    config.timing.tRTP = 8;
    config.timing.tWTR = 12;
    config.energy.actPrePj = 1100.0;
    config.energy.nearBankPerBytePj = 2.2;
    config.energy.globalIoPerBytePj = 9.0;
    config.energy.externalPerBytePj = 58.0; // off-package GDDR PHY
    return config;
}

} // namespace anaheim
