#include "defense/registry.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "common/log.h"
#include "defense/aqua.h"
#include "defense/blockhammer.h"
#include "defense/graphene.h"
#include "defense/hydra.h"
#include "defense/para.h"
#include "defense/rrs.h"

namespace svard::defense {

namespace {

template <typename D>
std::unique_ptr<Defense>
unseeded(const DefenseContext &ctx)
{
    return std::make_unique<D>(ctx.provider);
}

template <typename D>
std::unique_ptr<Defense>
seeded(const DefenseContext &ctx)
{
    return std::make_unique<D>(ctx.provider, ctx.seed);
}

std::unique_ptr<Defense>
none(const DefenseContext &)
{
    return nullptr;
}

struct Entry
{
    const char *name;
    std::unique_ptr<Defense> (*make)(const DefenseContext &);
};

/** Sorted by name, so defenseNames() is sorted too. */
constexpr Entry kDefenses[] = {
    {"aqua", unseeded<Aqua>},
    {"blockhammer", unseeded<BlockHammer>},
    {"graphene", unseeded<Graphene>},
    {"hydra", unseeded<Hydra>},
    {"none", none},
    {"para", seeded<Para>},
    {"rrs", seeded<Rrs>},
};

const Entry *
findDefense(const std::string &name)
{
    std::string key = name;
    std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    for (const Entry &e : kDefenses)
        if (key == e.name)
            return &e;
    return nullptr;
}

} // anonymous namespace

bool
isDefenseName(const std::string &name)
{
    return findDefense(name) != nullptr;
}

std::vector<std::string>
defenseNames()
{
    std::vector<std::string> out;
    for (const Entry &e : kDefenses)
        out.push_back(e.name);
    return out;
}

std::unique_ptr<Defense>
makeDefenseByName(const std::string &name, const DefenseContext &ctx)
{
    const Entry *e = findDefense(name);
    if (e == nullptr) {
        std::string known;
        for (const Entry &k : kDefenses) {
            if (!known.empty())
                known += ", ";
            known += k.name;
        }
        throw std::invalid_argument("unknown defense \"" + name +
                                    "\" (known: " + known + ")");
    }
    std::unique_ptr<Defense> d = e->make(ctx);
    if (d) {
        // A zero bank count means the caller never derived the
        // geometry (the old hardcoded-16 default hid exactly that
        // for every non-Table-4 system); refuse instead of folding
        // banks wrongly.
        SVARD_ASSERT(ctx.banksPerRank > 0,
                     "DefenseContext::banksPerRank is unset; derive "
                     "it from the SimConfig (or module spec) under "
                     "test");
        d->setBanksPerRank(ctx.banksPerRank);
    }
    return d;
}

} // namespace svard::defense
