#include "bank.h"

#include <algorithm>

#include "common/logging.h"

namespace anaheim {

int64_t
BankEngine::applyRefresh(int64_t cycle)
{
    if (nextRefresh_ == 0)
        nextRefresh_ = timing_.tREFI;
    while (cycle >= nextRefresh_) {
        // The bank is unavailable for tRFC around each refresh window.
        cycle = std::max(cycle, nextRefresh_) + timing_.tRFC;
        nextRefresh_ += timing_.tREFI;
        ++refreshes_;
    }
    return cycle;
}

int64_t
BankEngine::issue(DramCommand command)
{
    int64_t earliest = applyRefresh(busyUntil_);
    switch (command) {
      case DramCommand::Act:
        ANAHEIM_ASSERT(!rowOpen_, "ACT on an open row");
        earliest = std::max(earliest, lastPre_ + timing_.tRP);
        lastAct_ = earliest;
        rowOpen_ = true;
        ++counts_.acts;
        busyUntil_ = earliest;
        break;
      case DramCommand::Rd:
        ANAHEIM_ASSERT(rowOpen_, "RD on a precharged bank");
        earliest = std::max(earliest, lastAct_ + timing_.tRCD);
        earliest = std::max(earliest, lastRead_ + timing_.tCCD);
        earliest = std::max(earliest, lastWrite_ + timing_.tWTR);
        lastRead_ = earliest;
        ++counts_.reads;
        // Data occupies the bank datapath for tCCD.
        busyUntil_ = earliest + timing_.tCCD;
        break;
      case DramCommand::Wr:
        ANAHEIM_ASSERT(rowOpen_, "WR on a precharged bank");
        earliest = std::max(earliest, lastAct_ + timing_.tRCD);
        earliest = std::max(earliest, lastWrite_ + timing_.tCCD);
        lastWrite_ = earliest;
        ++counts_.writes;
        busyUntil_ = earliest + timing_.tCCD;
        break;
      case DramCommand::Pre:
        ANAHEIM_ASSERT(rowOpen_, "PRE on a precharged bank");
        earliest = std::max(earliest, lastAct_ + timing_.tRAS);
        earliest = std::max(earliest, lastRead_ + timing_.tRTP);
        earliest = std::max(earliest, lastWrite_ + timing_.tWR);
        lastPre_ = earliest;
        rowOpen_ = false;
        ++counts_.pres;
        busyUntil_ = earliest;
        break;
    }
    return earliest;
}

int64_t
BankEngine::activateRow()
{
    if (rowOpen_)
        issue(DramCommand::Pre);
    return issue(DramCommand::Act);
}

} // namespace anaheim
