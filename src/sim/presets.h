/**
 * @file
 * Named geometry presets: fully-resolved SimConfigs (organization +
 * per-standard timing table) addressable by string name, so sweep
 * specs, benches, and tests can open the geometry axis without
 * hand-assembling channel/bank/row counts. The paper evaluates one
 * fixed DDR4 Table 4 system; the presets extend the same evaluation
 * onto the organizations the HBM characterization study
 * (arXiv:2310.14665) and the DDR5 32-bank generation make relevant:
 *
 *  - "ddr4-table4":       the paper's system (1 ch, 2 ranks, 4 bank
 *                         groups x 4 banks, 128K rows/bank, DDR4-3200)
 *  - "ddr5-4800-32bank":  DDR5-4800B, 8 bank groups x 4 banks
 *                         (32 banks/rank), 64K rows/bank
 *  - "hbm2-pc-16ch":      HBM2 pseudo-channel mode, 16 pseudo
 *                         channels, 1 rank, 16 banks/PC, 16K rows of
 *                         2 KiB per bank
 *
 * Preset names are recorded in result-sink geometry columns and mixed
 * into cache fingerprints, so cached cells of one organization are
 * never misattributed to another.
 */
#ifndef SVARD_SIM_PRESETS_H
#define SVARD_SIM_PRESETS_H

#include <string>
#include <vector>

#include "sim/config.h"

namespace svard::sim::presets {

/** All registered preset names, in registration order. */
const std::vector<std::string> &names();

/**
 * The fully-resolved configuration of a preset (its `geometry` field
 * carries the preset name).
 * @throws std::invalid_argument for unknown names, listing the known
 *         ones — a typoed geometry must never silently simulate the
 *         default system.
 */
SimConfig get(const std::string &name);

} // namespace svard::sim::presets

#endif // SVARD_SIM_PRESETS_H
