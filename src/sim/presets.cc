#include "sim/presets.h"

#include <stdexcept>

namespace svard::sim::presets {

namespace {

SimConfig
ddr4Table4()
{
    SimConfig cfg; // the default SimConfig IS the Table 4 system
    cfg.geometry = "ddr4-table4";
    cfg.standard = dram::Standard::DDR4;
    return cfg;
}

SimConfig
ddr5_4800_32bank()
{
    SimConfig cfg;
    cfg.geometry = "ddr5-4800-32bank";
    cfg.standard = dram::Standard::DDR5;
    cfg.channels = 1;
    cfg.ranks = 2;
    cfg.bankGroups = 8;   // 8 x 4 = 32 banks per rank
    cfg.banksPerGroup = 4;
    cfg.rowsPerBank = 64 * 1024; // 16Gb x8 device: 64K rows of 8 KiB
    cfg.rowBytes = 8192;
    cfg.timing = dram::timingFor(dram::Standard::DDR5, 4800);
    return cfg;
}

SimConfig
hbm2Pc16ch()
{
    SimConfig cfg;
    cfg.geometry = "hbm2-pc-16ch";
    cfg.standard = dram::Standard::HBM2;
    cfg.channels = 16;    // 8 legacy channels x 2 pseudo channels
    cfg.ranks = 1;
    cfg.bankGroups = 4;   // 16 banks per pseudo channel
    cfg.banksPerGroup = 4;
    cfg.rowsPerBank = 16 * 1024; // 8Gb channel: 16K rows of 2 KiB
    cfg.rowBytes = 2048;
    cfg.timing = dram::timingFor(dram::Standard::HBM2, 2000);
    return cfg;
}

struct Preset
{
    const char *name;
    SimConfig (*make)();
};

const Preset kPresets[] = {
    {"ddr4-table4", ddr4Table4},
    {"ddr5-4800-32bank", ddr5_4800_32bank},
    {"hbm2-pc-16ch", hbm2Pc16ch},
};

} // anonymous namespace

const std::vector<std::string> &
names()
{
    static const std::vector<std::string> all = [] {
        std::vector<std::string> out;
        for (const Preset &p : kPresets)
            out.push_back(p.name);
        return out;
    }();
    return all;
}

SimConfig
get(const std::string &name)
{
    for (const Preset &p : kPresets)
        if (name == p.name)
            return p.make();
    std::string known;
    for (const std::string &n : names())
        known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown geometry preset \"" + name +
                                "\" (known: " + known + ")");
}

} // namespace svard::sim::presets
