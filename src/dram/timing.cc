#include "dram/timing.h"

#include <stdexcept>
#include <string>

namespace svard::dram {

const char *
commandName(Command cmd)
{
    switch (cmd) {
      case Command::ACT: return "ACT";
      case Command::PRE: return "PRE";
      case Command::PREA: return "PREA";
      case Command::RD: return "RD";
      case Command::WR: return "WR";
      case Command::REF: return "REF";
    }
    return "?";
}

namespace {

[[noreturn]] void
unknownRate(const char *standard, int data_rate_mts,
            const char *known)
{
    throw std::invalid_argument(
        std::string(standard) + " timing table has no " +
        std::to_string(data_rate_mts) + " MT/s bin (known: " + known +
        ")");
}

} // anonymous namespace

TimingParams
ddr4Timing(int data_rate_mts)
{
    TimingParams t;
    // tCK = 2000 / data_rate ns (double data rate). JEDEC cycle counts
    // below follow the common CL-equal-speed-bin configuration of the
    // tested modules.
    switch (data_rate_mts) {
      case 2400:
        t.tCK = 833;
        t.tCL = 14167;   // CL17
        t.tRCD = 14167;
        t.tRP = 14167;
        t.tRAS = 32000;
        break;
      case 2666:
        t.tCK = 750;
        t.tCL = 14250;   // CL19
        t.tRCD = 14250;
        t.tRP = 14250;
        t.tRAS = 32000;
        break;
      case 2933:
        t.tCK = 682;
        t.tCL = 14320;   // CL21
        t.tRCD = 14320;
        t.tRP = 14320;
        t.tRAS = 32000;
        break;
      case 3200:
        t.tCK = 625;
        t.tCL = 13750;   // CL22
        t.tRCD = 13750;
        t.tRP = 13750;
        t.tRAS = 32000;
        break;
      default:
        // A silent 3200 fallback used to hide typos like 2667 behind
        // a plausible simulation; unknown rates must refuse loudly.
        unknownRate("DDR4", data_rate_mts, "2400, 2666, 2933, 3200");
    }
    t.tRC = t.tRAS + t.tRP;
    t.tBL = 4 * t.tCK;
    t.tCCD_S = 4 * t.tCK;
    t.tCCD_L = 6 * t.tCK;
    t.tRRD_S = 4 * t.tCK > 3300 ? 4 * t.tCK : 3300;
    t.tRRD_L = 6 * t.tCK > 4900 ? 6 * t.tCK : 4900;
    t.tFAW = 16 * t.tCK > 21000 ? 16 * t.tCK : 21000;
    t.tWTR_S = 4 * t.tCK > 2500 ? 4 * t.tCK : 2500;
    t.tWTR_L = 12 * t.tCK > 7500 ? 12 * t.tCK : 7500;
    t.tRTP = 12 * t.tCK > 7500 ? 12 * t.tCK : 7500;
    return t;
}

TimingParams
ddr5Timing(int data_rate_mts)
{
    TimingParams t;
    switch (data_rate_mts) {
      case 4800:
        // DDR5-4800B (JESD79-5B): tCK = 2000/4800 ns = 416.67 ps,
        // rounded to nearest (truncating would reintroduce the
        // ~0.16% drift the cpuTick fix removed).
        t.tCK = 417;
        t.tCL = 16666;   // CL40
        t.tCWL = 15833;  // CWL38
        t.tRCD = 16666;
        t.tRP = 16666;
        t.tRAS = 32000;
        break;
      default:
        unknownRate("DDR5", data_rate_mts, "4800");
    }
    t.tRC = t.tRAS + t.tRP;
    t.tBL = 8 * t.tCK; // BL16
    t.tCCD_S = 8 * t.tCK;
    t.tCCD_L = 8 * t.tCK > 5000 ? 8 * t.tCK : 5000;
    t.tRRD_S = 8 * t.tCK;
    t.tRRD_L = 8 * t.tCK > 5000 ? 8 * t.tCK : 5000;
    t.tFAW = 32 * t.tCK > 13333 ? 32 * t.tCK : 13333;
    t.tWR = 30000;
    t.tRTP = 12 * t.tCK > 7500 ? 12 * t.tCK : 7500;
    t.tWTR_S = 4 * t.tCK > 2500 ? 4 * t.tCK : 2500;
    t.tWTR_L = 16 * t.tCK > 10000 ? 16 * t.tCK : 10000;
    t.tRFC = 295000;    // tRFC1, 16Gb device
    t.tREFI = 3900000;  // 3.9us (DDR5 halves the DDR4 interval)
    t.tREFW = 32 * kPsPerMs;
    return t;
}

TimingParams
hbm2Timing(int data_rate_mts)
{
    TimingParams t;
    switch (data_rate_mts) {
      case 2000:
        // HBM2 at 2.0 Gbps/pin, pseudo-channel mode: 1 GHz clock.
        t.tCK = 1000;
        t.tCL = 14000;
        t.tCWL = 7000;
        t.tRCD = 14000;
        t.tRP = 14000;
        t.tRAS = 33000;
        break;
      default:
        unknownRate("HBM2", data_rate_mts, "2000");
    }
    t.tRC = t.tRAS + t.tRP;
    t.tBL = 2 * t.tCK; // BL4 in pseudo-channel mode
    t.tCCD_S = 2 * t.tCK;
    t.tCCD_L = 3 * t.tCK;
    t.tRRD_S = 4 * t.tCK;
    t.tRRD_L = 6 * t.tCK;
    t.tFAW = 16 * t.tCK;
    t.tWR = 15000;
    t.tRTP = 7500;
    t.tWTR_S = 2500;
    t.tWTR_L = 7500;
    t.tRFC = 260000;    // 8Gb channel density
    t.tREFI = 3900000;
    t.tREFW = 64 * kPsPerMs;
    return t;
}

TimingParams
timingFor(Standard std, int data_rate_mts)
{
    switch (std) {
      case Standard::DDR4: return ddr4Timing(data_rate_mts);
      case Standard::DDR5: return ddr5Timing(data_rate_mts);
      case Standard::HBM2: return hbm2Timing(data_rate_mts);
    }
    throw std::invalid_argument("unknown DRAM standard");
}

} // namespace svard::dram
