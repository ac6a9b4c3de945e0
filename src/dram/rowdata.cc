#include "dram/rowdata.h"

namespace svard::dram {

// The BER count of every characterized row runs through this loop.
// The popcnt clone is picked at load time on hosts that have the
// instruction; the default clone keeps the binary portable.
#if defined(__x86_64__)
__attribute__((target_clones("popcnt", "default")))
#endif
uint64_t
xorPopcountBase(const uint64_t *words, size_t n, uint64_t base)
{
    uint64_t count = 0;
    for (size_t i = 0; i < n; ++i)
        count += static_cast<uint64_t>(std::popcount(words[i] ^ base));
    return count;
}

} // namespace svard::dram
