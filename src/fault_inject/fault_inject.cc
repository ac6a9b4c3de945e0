#include "fault_inject/fault_inject.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/mutex.h"

namespace svard::faults {

namespace {

struct PlanEntry
{
    std::string point;
    Action action = Action::None;
    uint64_t at = 1;      ///< 1-based hit count that fires
    bool persistent = false; ///< '+': fire on every hit >= at
    uint64_t arg = 0;
    std::atomic<uint64_t> hits{0};

    PlanEntry() = default;
    PlanEntry(const PlanEntry &o)
        : point(o.point), action(o.action), at(o.at),
          persistent(o.persistent), arg(o.arg),
          hits(o.hits.load(std::memory_order_relaxed))
    {}
};

/** The installed plan. Reconfiguration is rare (process start,
 *  test setup) and guarded; check() reads the vector without a lock,
 *  which is safe because configure() swaps the active flag off while
 *  it mutates. Tests never reconfigure concurrently with I/O. */
std::vector<PlanEntry> &
plan()
{
    static std::vector<PlanEntry> entries;
    return entries;
}

std::atomic<bool> g_active{false};
Mutex g_mu;

const char *
actionName(Action a)
{
    switch (a) {
    case Action::None: return "none";
    case Action::Kill: return "kill";
    case Action::Eio: return "eio";
    case Action::Short: return "short";
    case Action::Torn: return "torn";
    case Action::Stall: return "stall";
    case Action::Sigterm: return "sigterm";
    }
    return "?";
}

Action
parseAction(const std::string &s)
{
    if (s == "kill") return Action::Kill;
    if (s == "eio") return Action::Eio;
    if (s == "short") return Action::Short;
    if (s == "torn") return Action::Torn;
    if (s == "stall") return Action::Stall;
    if (s == "sigterm") return Action::Sigterm;
    throw std::invalid_argument("SVARD_FAULT: unknown action \"" + s +
                                "\" (kill|eio|short|torn|stall|"
                                "sigterm)");
}

uint64_t
parseCount(const std::string &s, const char *what)
{
    if (s.empty() ||
        s.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument(
            std::string("SVARD_FAULT: malformed ") + what + " \"" + s +
            "\"");
    errno = 0;
    const uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE)
        throw std::invalid_argument(std::string("SVARD_FAULT: ") + what +
                                    " \"" + s + "\" out of range");
    return v;
}

PlanEntry
parseEntry(const std::string &raw)
{
    // point ':' action '@' N ['+'] [':' arg]
    const size_t colon = raw.find(':');
    const size_t at = raw.find('@');
    if (colon == std::string::npos || at == std::string::npos ||
        at < colon)
        throw std::invalid_argument(
            "SVARD_FAULT: malformed entry \"" + raw +
            "\" (want point:action@N[+][:arg])");
    PlanEntry e;
    e.point = raw.substr(0, colon);
    e.action = parseAction(raw.substr(colon + 1, at - colon - 1));
    std::string tail = raw.substr(at + 1);
    const size_t argColon = tail.find(':');
    if (argColon != std::string::npos) {
        e.arg = parseCount(tail.substr(argColon + 1), "arg");
        tail = tail.substr(0, argColon);
    }
    if (!tail.empty() && tail.back() == '+') {
        e.persistent = true;
        tail.pop_back();
    }
    e.at = parseCount(tail, "hit count");
    if (e.at == 0)
        throw std::invalid_argument(
            "SVARD_FAULT: hit counts are 1-based (\"" + raw + "\")");
    if (e.point.empty())
        throw std::invalid_argument(
            "SVARD_FAULT: empty point name (\"" + raw + "\")");
    if (e.arg == 0 && e.action == Action::Stall)
        e.arg = 1000;
    return e;
}

/** Lazy one-shot init from the environment. */
void
ensureEnvLoaded()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *spec = std::getenv("SVARD_FAULT");
        if (spec && *spec)
            configure(spec);
    });
}

} // anonymous namespace

bool
anyActive()
{
    ensureEnvLoaded();
    return g_active.load(std::memory_order_relaxed);
}

Hit
check(const char *point)
{
    if (!anyActive())
        return {};
    for (PlanEntry &e : plan()) {
        if (e.point != point)
            continue;
        const uint64_t n =
            e.hits.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n != e.at && !(e.persistent && n > e.at))
            return {};
        warn("fault injected: " + e.point + ":" +
             actionName(e.action) + " (hit " + std::to_string(n) +
             ")");
        switch (e.action) {
        case Action::Kill:
            // A SIGKILL-grade death: no atexit, no stream flush —
            // whatever the OS already has is all a restart will see.
            std::_Exit(137);
        case Action::Sigterm:
            std::raise(SIGTERM);
            return {};
        case Action::Stall:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(e.arg));
            return {};
        default:
            return {e.action, e.arg};
        }
    }
    return {};
}

void
configure(const std::string &spec)
{
    MutexLock lock(g_mu);
    g_active.store(false, std::memory_order_relaxed);
    plan().clear();
    size_t start = 0;
    while (start < spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        if (end > start)
            plan().push_back(parseEntry(spec.substr(start, end - start)));
        start = end + 1;
    }
    if (!plan().empty()) {
        inform("fault plan installed: " + planSummary());
        g_active.store(true, std::memory_order_relaxed);
    }
}

void
reset()
{
    MutexLock lock(g_mu);
    g_active.store(false, std::memory_order_relaxed);
    plan().clear();
}

uint64_t
hitCount(const char *point)
{
    ensureEnvLoaded();
    for (const PlanEntry &e : plan())
        if (e.point == point)
            return e.hits.load(std::memory_order_relaxed);
    return 0;
}

std::string
planSummary()
{
    std::string out;
    for (const PlanEntry &e : plan()) {
        if (!out.empty())
            out += ", ";
        out += e.point + ":" + actionName(e.action) + "@" +
               std::to_string(e.at) + (e.persistent ? "+" : "");
        if (e.arg)
            out += ":" + std::to_string(e.arg);
    }
    return out;
}

} // namespace svard::faults
