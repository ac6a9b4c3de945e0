/**
 * @file
 * DRAM timing-rule oracle. Every command a MemController issues is
 * observed through System::setCommandObserver and replayed against the
 * preset's timing table by a checker that shares no code with the
 * scheduler. The grid is every geometry preset x every registry
 * defense (including "none") x {benign mix, RRS hammer, Hydra thrash}
 * at threshold 128, so victim refreshes, AQUA migrations, RRS swaps,
 * Hydra counter fetches and BlockHammer throttles all shape the
 * checked streams.
 *
 * Checked: tRCD, tRP, tRAS, tRC; tRRD_S, tRRD_L, tFAW; tRFC after REF;
 * the release time of a defense's bank occupancy; same-bank tCCD_L;
 * CL/CWL to the data burst and non-overlapping bursts on the channel
 * bus; tWR before PRE; ACT only to a closed bank and columns only to
 * the open row; each REF at or after its due time, before the next
 * tREFI, in tREFI steps.
 *
 * Deliberately unchecked (kUnmodelled): the controller does not
 * enforce tRTP, tWTR_S, tWTR_L, tCCD_S, or tCCD_L between different
 * banks of one bank group (see sim/controller.h), so streams violate
 * them by design.
 *
 * Each cell's command stream is pinned by digest, so any change to
 * what the scheduler issues, or when, fails here even if it is legal.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/svard.h"
#include "defense/registry.h"
#include "sim/controller.h"
#include "sim/presets.h"
#include "sim/system.h"
#include "sim/workload.h"

namespace svard {
namespace {

using sim::DramCommand;
using Kind = DramCommand::Kind;

constexpr size_t kReqs = 1500;
constexpr uint64_t kSeed = 11;
constexpr double kThreshold = 128.0;
constexpr dram::Tick kNever = -(dram::Tick{1} << 40);

/** Timing-table entries the controller does not model. */
constexpr const char *kUnmodelled[] = {
    "tRTP", "tWTR_S", "tWTR_L", "tCCD_S", "tCCD_L across banks"};

/** Replays one channel's command stream against its timing table. */
class TimingChecker : public sim::CommandObserver
{
  public:
    explicit TimingChecker(const sim::SimConfig &cfg)
        : cfg_(cfg), t_(cfg.timing), banks_(cfg.totalBanks()),
          ranks_(cfg.ranks)
    {
        for (Rank &r : ranks_) {
            r.nextDue = t_.tREFI;
            r.lastActBg.assign(cfg.bankGroups, kNever);
        }
    }

    void
    onCommand(const DramCommand &c) override
    {
        ++commands_;
        ++perKind_[static_cast<size_t>(c.kind)];
        digest_.mix(static_cast<uint32_t>(c.kind)).mix(c.bank);
        digest_.mix(c.row).mix(c.at).mix(c.aux);
        switch (c.kind) {
          case Kind::Act: act(c); break;
          case Kind::Pre: pre(c); break;
          case Kind::Rd:
          case Kind::Wr: column(c); break;
          case Kind::Ref: refresh(c); break;
          case Kind::Occupy: {
            Bank &b = banks_[c.bank];
            b.open = false;
            b.occupiedUntil = std::max(b.occupiedUntil, c.aux);
            break;
          }
        }
    }

    const std::map<std::string, uint64_t> &violations() const
    {
        return violations_;
    }
    const std::string &firstViolation() const { return first_; }
    uint64_t digest() const { return digest_.value(); }
    uint64_t commands() const { return commands_; }
    uint64_t count(Kind k) const
    {
        return perKind_[static_cast<size_t>(k)];
    }

  private:
    struct Bank
    {
        bool open = false;
        uint32_t row = 0;
        dram::Tick lastAct = kNever;
        dram::Tick lastPre = kNever;
        dram::Tick lastColumn = kNever;
        dram::Tick lastWriteData = kNever; ///< since the last ACT
        dram::Tick refreshedAt = kNever;
        dram::Tick occupiedUntil = kNever;
    };

    struct Rank
    {
        std::vector<dram::Tick> acts; ///< every ACT, in issue order
        dram::Tick lastAct = kNever;
        std::vector<dram::Tick> lastActBg;
        dram::Tick nextDue = 0;
    };

    void
    expect(bool ok, const char *rule, const DramCommand &c)
    {
        if (ok)
            return;
        if (violations_.empty()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s: kind %u bank %u row %u at %lld aux %lld",
                          rule, static_cast<unsigned>(c.kind), c.bank,
                          c.row, static_cast<long long>(c.at),
                          static_cast<long long>(c.aux));
            first_ = buf;
        }
        ++violations_[rule];
    }

    uint32_t rankOf(uint32_t b) const { return b / cfg_.banksPerRank(); }
    uint32_t
    groupOf(uint32_t b) const
    {
        return b % cfg_.banksPerRank() / cfg_.banksPerGroup;
    }

    void
    act(const DramCommand &c)
    {
        Bank &b = banks_[c.bank];
        Rank &r = ranks_[rankOf(c.bank)];
        expect(!b.open, "ACT to an open bank", c);
        expect(c.at >= b.lastPre + t_.tRP, "tRP", c);
        expect(c.at >= b.lastAct + t_.tRC, "tRC", c);
        expect(c.at >= b.refreshedAt + t_.tRFC, "tRFC", c);
        expect(c.at >= b.occupiedUntil, "occupancy release", c);
        expect(c.at >= r.lastAct + t_.tRRD_S, "tRRD_S", c);
        expect(c.at >= r.lastActBg[groupOf(c.bank)] + t_.tRRD_L,
               "tRRD_L", c);
        if (r.acts.size() >= 4)
            expect(c.at >= r.acts[r.acts.size() - 4] + t_.tFAW, "tFAW",
                   c);
        b.open = true;
        b.row = c.row;
        b.lastAct = c.at;
        b.lastWriteData = kNever;
        r.acts.push_back(c.at);
        r.lastAct = c.at;
        r.lastActBg[groupOf(c.bank)] = c.at;
    }

    void
    pre(const DramCommand &c)
    {
        Bank &b = banks_[c.bank];
        expect(b.open, "PRE to a closed bank", c);
        expect(c.at >= b.lastAct + t_.tRAS, "tRAS", c);
        expect(c.at >= b.lastWriteData + t_.tBL + t_.tWR, "tWR", c);
        b.open = false;
        b.lastPre = c.at;
    }

    void
    column(const DramCommand &c)
    {
        Bank &b = banks_[c.bank];
        const bool write = c.kind == Kind::Wr;
        expect(b.open && b.row == c.row, "column to a non-open row", c);
        expect(c.at >= b.lastAct + t_.tRCD, "tRCD", c);
        expect(c.at >= b.lastColumn + t_.tCCD_L, "tCCD_L same bank", c);
        expect(c.aux >= c.at + (write ? t_.tCWL : t_.tCL), "CL/CWL", c);
        expect(c.aux >= busFree_, "overlapping data bursts", c);
        busFree_ = c.aux + t_.tBL;
        b.lastColumn = c.at;
        if (write)
            b.lastWriteData = c.aux;
    }

    void
    refresh(const DramCommand &c)
    {
        Rank &r = ranks_[c.bank];
        expect(c.aux == r.nextDue, "REF out of tREFI cadence", c);
        expect(c.at >= c.aux, "REF before its due time", c);
        expect(c.at < c.aux + t_.tREFI, "REF a full tREFI late", c);
        r.nextDue += t_.tREFI;
        const uint32_t first = c.bank * cfg_.banksPerRank();
        for (uint32_t i = 0; i < cfg_.banksPerRank(); ++i) {
            banks_[first + i].open = false;
            banks_[first + i].refreshedAt = c.at;
        }
    }

    const sim::SimConfig &cfg_;
    const dram::TimingParams &t_;
    std::vector<Bank> banks_;
    std::vector<Rank> ranks_;
    dram::Tick busFree_ = kNever;
    HashStream digest_;
    uint64_t commands_ = 0;
    std::array<uint64_t, 6> perKind_{};
    std::map<std::string, uint64_t> violations_;
    std::string first_;
};

enum TraceKind : uint32_t
{
    kBenign = 0,
    kRrsHammer = 1,
    kHydraThrash = 2,
};

std::vector<std::vector<sim::TraceEntry>>
tracesFor(const sim::SimConfig &cfg, uint32_t kind)
{
    const auto &suite = sim::benchmarkSuite();
    std::vector<std::vector<sim::TraceEntry>> traces;
    sim::WorkloadMix mix = sim::workloadMixes(1, cfg.cores)[0];
    uint32_t first = 0;
    if (kind != kBenign) {
        // Core 0 attacks; the rest run the fixed Fig. 13 benign mix.
        traces.push_back(
            kind == kRrsHammer
                ? sim::adversarialRrsTrace(kReqs, kSeed, 1000, cfg)
                : sim::adversarialHydraTrace(kReqs, kSeed, cfg));
        mix = sim::adversarialBenignMix(cfg.cores);
        first = 1;
    }
    for (uint32_t c = first; c < cfg.cores; ++c)
        traces.push_back(sim::generateTrace(
            suite[mix.benchIdx[c - first]], kReqs, kSeed,
            sim::coreTraceOffset(kSeed, c)));
    return traces;
}

struct PinnedStream
{
    const char *preset;
    const char *defense;
    uint32_t trace; ///< TraceKind
    uint64_t digest;
};

/** Command-stream digests (channel digests and counts, in channel
 *  order), recorded with SVARD_DUMP_GOLDEN=1. */
const PinnedStream kPinned[] = {
    // clang-format off
    {"ddr4-table4", "aqua", 0, 0x5380baf87215c27bULL},
    {"ddr4-table4", "aqua", 1, 0x8383ed074fe702aeULL},
    {"ddr4-table4", "aqua", 2, 0xc4423807716e9851ULL},
    {"ddr4-table4", "blockhammer", 0, 0x5380baf87215c27bULL},
    {"ddr4-table4", "blockhammer", 1, 0x012a2cffe03c1f94ULL},
    {"ddr4-table4", "blockhammer", 2, 0xc4423807716e9851ULL},
    {"ddr4-table4", "graphene", 0, 0x5380baf87215c27bULL},
    {"ddr4-table4", "graphene", 1, 0xad15aed19046c8e9ULL},
    {"ddr4-table4", "graphene", 2, 0xc4423807716e9851ULL},
    {"ddr4-table4", "hydra", 0, 0x8f8b2745beac2942ULL},
    {"ddr4-table4", "hydra", 1, 0xcbcabc243c3daa46ULL},
    {"ddr4-table4", "hydra", 2, 0x97680c8a3b022d91ULL},
    {"ddr4-table4", "none", 0, 0x5380baf87215c27bULL},
    {"ddr4-table4", "none", 1, 0xdb86388441750566ULL},
    {"ddr4-table4", "none", 2, 0xc4423807716e9851ULL},
    {"ddr4-table4", "para", 0, 0x9a4bd2cd4ce41c14ULL},
    {"ddr4-table4", "para", 1, 0x4559a79a1ba3edb5ULL},
    {"ddr4-table4", "para", 2, 0xf35f1ffa28931d2aULL},
    {"ddr4-table4", "rrs", 0, 0x5380baf87215c27bULL},
    {"ddr4-table4", "rrs", 1, 0x419805a5ce910656ULL},
    {"ddr4-table4", "rrs", 2, 0xc4423807716e9851ULL},
    {"ddr5-4800-32bank", "aqua", 0, 0xa14ef0e7a94c83eaULL},
    {"ddr5-4800-32bank", "aqua", 1, 0x3df9d3fea91c6399ULL},
    {"ddr5-4800-32bank", "aqua", 2, 0x7276c3ad6b1ae9eaULL},
    {"ddr5-4800-32bank", "blockhammer", 0, 0xa14ef0e7a94c83eaULL},
    {"ddr5-4800-32bank", "blockhammer", 1, 0x8535c7eae124667fULL},
    {"ddr5-4800-32bank", "blockhammer", 2, 0x7276c3ad6b1ae9eaULL},
    {"ddr5-4800-32bank", "graphene", 0, 0xa14ef0e7a94c83eaULL},
    {"ddr5-4800-32bank", "graphene", 1, 0x2bdbe360d4500c49ULL},
    {"ddr5-4800-32bank", "graphene", 2, 0x7276c3ad6b1ae9eaULL},
    {"ddr5-4800-32bank", "hydra", 0, 0xa14ef0e7a94c83eaULL},
    {"ddr5-4800-32bank", "hydra", 1, 0x75af6ec8d491f980ULL},
    {"ddr5-4800-32bank", "hydra", 2, 0xf5974bf568cfa9f2ULL},
    {"ddr5-4800-32bank", "none", 0, 0xa14ef0e7a94c83eaULL},
    {"ddr5-4800-32bank", "none", 1, 0x8888dfbaf8a0e17dULL},
    {"ddr5-4800-32bank", "none", 2, 0x7276c3ad6b1ae9eaULL},
    {"ddr5-4800-32bank", "para", 0, 0xa1a02866d62d20a4ULL},
    {"ddr5-4800-32bank", "para", 1, 0xba1b5298580280adULL},
    {"ddr5-4800-32bank", "para", 2, 0xae8e1eec4f55fa3aULL},
    {"ddr5-4800-32bank", "rrs", 0, 0xa14ef0e7a94c83eaULL},
    {"ddr5-4800-32bank", "rrs", 1, 0xb7135ddafc0d44baULL},
    {"ddr5-4800-32bank", "rrs", 2, 0x7276c3ad6b1ae9eaULL},
    {"hbm2-pc-16ch", "aqua", 0, 0xafa5c3be2186e69eULL},
    {"hbm2-pc-16ch", "aqua", 1, 0x446d23289ff52621ULL},
    {"hbm2-pc-16ch", "aqua", 2, 0x56e36236f1a2f97fULL},
    {"hbm2-pc-16ch", "blockhammer", 0, 0xafa5c3be2186e69eULL},
    {"hbm2-pc-16ch", "blockhammer", 1, 0xe33f509c07f7c3adULL},
    {"hbm2-pc-16ch", "blockhammer", 2, 0x56e36236f1a2f97fULL},
    {"hbm2-pc-16ch", "graphene", 0, 0xafa5c3be2186e69eULL},
    {"hbm2-pc-16ch", "graphene", 1, 0xbdd95ef732585c76ULL},
    {"hbm2-pc-16ch", "graphene", 2, 0x56e36236f1a2f97fULL},
    {"hbm2-pc-16ch", "hydra", 0, 0xafa5c3be2186e69eULL},
    {"hbm2-pc-16ch", "hydra", 1, 0x93efd8df0a076affULL},
    {"hbm2-pc-16ch", "hydra", 2, 0x7f0bcf73a2e7404fULL},
    {"hbm2-pc-16ch", "none", 0, 0xafa5c3be2186e69eULL},
    {"hbm2-pc-16ch", "none", 1, 0x20e0f2947bb03fccULL},
    {"hbm2-pc-16ch", "none", 2, 0x56e36236f1a2f97fULL},
    {"hbm2-pc-16ch", "para", 0, 0x3717cfccfec236a3ULL},
    {"hbm2-pc-16ch", "para", 1, 0xe93806ce9ca14b40ULL},
    {"hbm2-pc-16ch", "para", 2, 0xe69ec4ed8d32ebc6ULL},
    {"hbm2-pc-16ch", "rrs", 0, 0xafa5c3be2186e69eULL},
    {"hbm2-pc-16ch", "rrs", 1, 0xa369e7455620da98ULL},
    {"hbm2-pc-16ch", "rrs", 2, 0x56e36236f1a2f97fULL},
    // clang-format on
};

TEST(TimingRules, EveryPresetDefenseAndTraceObeysTheModelledRules)
{
    const bool dump = std::getenv("SVARD_DUMP_GOLDEN") != nullptr;
    std::map<std::string, uint64_t> pinned;
    for (const PinnedStream &p : kPinned)
        pinned[std::string(p.preset) + "/" + p.defense + "/" +
               std::to_string(p.trace)] = p.digest;

    std::array<uint64_t, 6> kinds{};
    size_t cells = 0;
    for (const std::string &preset : sim::presets::names()) {
        const sim::SimConfig cfg = sim::presets::get(preset);
        for (const std::string &defense :
             defense::defenseNames()) {
            for (uint32_t trace : {kBenign, kRrsHammer, kHydraThrash}) {
                sim::System sys(
                    cfg, tracesFor(cfg, trace), kReqs, defense,
                    std::make_shared<core::UniformThreshold>(
                        kThreshold, cfg.rowsPerBank),
                    kSeed);
                std::vector<std::unique_ptr<TimingChecker>> checkers;
                for (uint32_t ch = 0; ch < cfg.channels; ++ch) {
                    checkers.push_back(
                        std::make_unique<TimingChecker>(cfg));
                    sys.setCommandObserver(ch, checkers.back().get());
                }
                sys.run();
                ++cells;

                const std::string cell =
                    preset + "/" + defense + "/" + std::to_string(trace);
                HashStream h;
                for (const auto &chk : checkers) {
                    h.mix(chk->digest()).mix(chk->commands());
                    for (size_t k = 0; k < kinds.size(); ++k)
                        kinds[k] += chk->count(static_cast<Kind>(k));
                    EXPECT_TRUE(chk->violations().empty())
                        << cell << ": " << chk->violations().size()
                        << " rule(s) broken, first "
                        << chk->firstViolation();
                    for (const auto &[rule, n] : chk->violations())
                        ADD_FAILURE() << cell << ": " << rule << " x"
                                      << n;
                }
                if (dump) {
                    std::printf("    {\"%s\", \"%s\", %u, "
                                "0x%016llxULL},\n",
                                preset.c_str(), defense.c_str(), trace,
                                static_cast<unsigned long long>(
                                    h.value()));
                    continue;
                }
                const auto it = pinned.find(cell);
                if (it == pinned.end())
                    ADD_FAILURE() << cell << " has no pinned digest";
                else
                    EXPECT_EQ(h.value(), it->second)
                        << cell << ": command stream changed";
            }
        }
    }
    if (dump)
        GTEST_SKIP() << "digest dump mode";
    EXPECT_EQ(cells, pinned.size()) << "stale pinned digests";
    // The streams exercise every command kind the checker models.
    for (size_t k = 0; k < kinds.size(); ++k)
        EXPECT_GT(kinds[k], 0u) << "no commands of kind " << k;
    std::string unchecked;
    for (const char *rule : kUnmodelled)
        unchecked += (unchecked.empty() ? "" : ", ") + std::string(rule);
    RecordProperty("unchecked_rules", unchecked);
}

/** Throttles the first ACT to `row` and holds its bank behind a victim
 *  refresh that outlasts the throttle. */
class ThrottleOnce : public defense::Defense
{
  public:
    ThrottleOnce(uint32_t rows_per_bank, uint32_t row, dram::Tick delay)
        : Defense(std::make_shared<core::UniformThreshold>(
              1e18, rows_per_bank)),
          row_(row), delay_(delay)
    {}

    const char *name() const override { return "ThrottleOnce"; }

    void
    onActivate(uint32_t bank, uint32_t row, dram::Tick,
               std::vector<defense::PreventiveAction> &out) override
    {
        if (row != row_ || done_)
            return;
        done_ = true;
        out.push_back({defense::PreventiveAction::Kind::RefreshRow, bank,
                       row + 1, 0, 0});
        out.push_back({defense::PreventiveAction::Kind::Throttle, bank,
                       row, 0, delay_});
    }

  private:
    uint32_t row_;
    dram::Tick delay_;
    bool done_ = false;
};

class ActRows : public sim::CommandObserver
{
  public:
    void
    onCommand(const DramCommand &c) override
    {
        if (c.kind == Kind::Act)
            rows.push_back(c.row);
    }
    std::vector<uint32_t> rows;
};

/**
 * A throttled request leaves its bank's list and must rejoin it at its
 * arrival position: released while a younger request to the same
 * closed bank is already the bank's cached candidate, it still
 * activates first.
 */
TEST(SchedulerOrder, ReleasedRequestKeepsItsArrivalOrder)
{
    const sim::SimConfig cfg;
    ASSERT_LT(10 * dram::kPsPerNs, cfg.timing.tRAS + cfg.timing.tRP);
    ThrottleOnce defense(cfg.rowsPerBank, 10, 10 * dram::kPsPerNs);
    sim::MemController mc(cfg, &defense, nullptr);
    ActRows acts;
    mc.setObserver(&acts);
    for (uint32_t row : {10u, 20u}) {
        sim::MemRequest req;
        req.addr.row = row;
        ASSERT_TRUE(mc.enqueue(req));
    }
    mc.run(1000 * dram::kPsPerNs);
    EXPECT_TRUE(mc.idle());
    ASSERT_GE(acts.rows.size(), 2u);
    EXPECT_EQ(acts.rows[0], 10u) << "the younger request overtook it";
    EXPECT_EQ(acts.rows[1], 20u);
}

} // namespace
} // namespace svard
