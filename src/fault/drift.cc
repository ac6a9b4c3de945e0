#include "fault/drift.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bender/temperature.h"
#include "common/rng.h"
#include "fault/vuln_model.h"

namespace svard::fault {

namespace {

constexpr uint64_t kTempTag = 0x44544d50;  // "DTMP"
constexpr uint64_t kDriftAgeTag = 0x44414745; // "DAGE"
constexpr uint64_t kThermTag = 0x44544852; // "DTHR"

double
hashUniform(std::initializer_list<uint64_t> parts)
{
    return (hashSeed(parts) >> 11) * (1.0 / 9007199254740992.0);
}

[[noreturn]] void
badGrammar(const std::string &text, const char *why)
{
    throw std::invalid_argument("bad drift model \"" + text + "\": " +
                                why + " (grammar: none | "
                                "aging[:period] | "
                                "thermal[:ampl[:period]] | "
                                "aging+thermal)");
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

uint32_t
parseEpochs(const std::string &text, const std::string &tok)
{
    try {
        size_t pos = 0;
        const long v = std::stol(tok, &pos);
        if (pos != tok.size() || v < 1 || v > 1'000'000)
            badGrammar(text, "period must be an epoch count >= 1");
        return static_cast<uint32_t>(v);
    } catch (const std::invalid_argument &) {
        badGrammar(text, "period must be an epoch count >= 1");
    } catch (const std::out_of_range &) {
        badGrammar(text, "period must be an epoch count >= 1");
    }
}

double
parseAmpl(const std::string &text, const std::string &tok)
{
    try {
        size_t pos = 0;
        const double v = std::stod(tok, &pos);
        if (pos != tok.size() || !(v >= 0.0) || v > 100.0)
            badGrammar(text, "amplitude must be in [0, 100] C");
        return v;
    } catch (const std::invalid_argument &) {
        badGrammar(text, "amplitude must be a temperature in C");
    } catch (const std::out_of_range &) {
        badGrammar(text, "amplitude must be a temperature in C");
    }
}

} // anonymous namespace

DriftModelSpec
DriftModelSpec::parse(const std::string &text)
{
    DriftModelSpec spec;
    if (text.empty())
        badGrammar(text, "empty model");
    const std::vector<std::string> parts = split(text, '+');
    for (const std::string &part : parts) {
        const std::vector<std::string> toks = split(part, ':');
        const std::string &head = toks.front();
        if (head == "none") {
            if (parts.size() > 1 || toks.size() > 1)
                badGrammar(text, "\"none\" composes with nothing");
        } else if (head == "aging") {
            if (spec.aging)
                badGrammar(text, "duplicate aging component");
            if (toks.size() > 2)
                badGrammar(text, "aging takes one optional period");
            spec.aging = true;
            if (toks.size() == 2)
                spec.agingPeriodEpochs = parseEpochs(text, toks[1]);
        } else if (head == "thermal") {
            if (spec.thermal)
                badGrammar(text, "duplicate thermal component");
            if (toks.size() > 3)
                badGrammar(text,
                           "thermal takes optional ampl and period");
            spec.thermal = true;
            if (toks.size() >= 2)
                spec.thermalAmplC = parseAmpl(text, toks[1]);
            if (toks.size() == 3)
                spec.thermalPeriodEpochs = parseEpochs(text, toks[2]);
        } else {
            badGrammar(text, "unknown component");
        }
    }
    return spec;
}

std::string
DriftModelSpec::name() const
{
    if (isStatic())
        return "none";
    std::string out;
    char buf[64];
    if (aging) {
        snprintf(buf, sizeof buf, "aging:%u", agingPeriodEpochs);
        out += buf;
    }
    if (thermal) {
        if (!out.empty())
            out += '+';
        snprintf(buf, sizeof buf, "thermal:%g:%u", thermalAmplC,
                 thermalPeriodEpochs);
        out += buf;
    }
    return out;
}

DriftField::DriftField(const DriftModelSpec &spec, uint64_t seed,
                       uint32_t epochs)
    : spec_(spec), seed_(seed), epochs_(epochs)
{
    if (!spec_.thermal)
        return;
    // Settle a seeded rig controller at each epoch's setpoint; the
    // recorded plant temperatures make factor() a pure lookup.
    bender::TemperatureController ctl(kCalibTempC, 25.0,
                                      hashSeed({seed_, kTempTag}));
    ctl.settle();
    temps_.resize(static_cast<size_t>(epochs_) + 1);
    temps_[0] = ctl.temperature();
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    const double period =
        std::max(1u, spec_.thermalPeriodEpochs);
    for (uint32_t e = 1; e <= epochs_; ++e) {
        const double phase = kTwoPi * e / period;
        ctl.setTarget(kCalibTempC +
                      spec_.thermalAmplC * std::sin(phase));
        ctl.settle();
        temps_[e] = ctl.temperature();
    }
}

double
DriftField::temperatureAt(uint32_t epoch) const
{
    if (temps_.empty())
        return kCalibTempC;
    return temps_[std::min<size_t>(epoch, temps_.size() - 1)];
}

double
DriftField::factor(uint32_t bank, uint32_t row, int64_t hc_q,
                   uint32_t epoch) const
{
    if (epoch == 0)
        return 1.0;
    double f = 1.0;
    if (spec_.aging) {
        const double p =
            agingDropProbability(hc_q);
        if (p > 0.0) {
            const double u = hashUniform(
                {seed_, kDriftAgeTag, bank, row});
            if (u < p) {
                // The Fig. 10 population that degrades over a full
                // stress period drops at a deterministic epoch,
                // earlier for rows deeper inside the population.
                const uint32_t period =
                    std::max(1u, spec_.agingPeriodEpochs);
                const uint32_t drop_epoch =
                    1 + std::min<uint32_t>(
                            period - 1,
                            static_cast<uint32_t>((u / p) * period));
                if (epoch >= drop_epoch)
                    f *= agingDropFactor(static_cast<double>(hc_q));
            }
        }
    }
    if (spec_.thermal) {
        const double dt = temperatureAt(epoch) - temperatureAt(0);
        const double sens =
            0.5 + hashUniform({seed_, kThermTag, bank, row});
        f *= std::clamp(1.0 - spec_.thermalCoeffPerC * dt * sens,
                        0.25, 4.0);
    }
    return f;
}

} // namespace svard::fault
