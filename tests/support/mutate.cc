#include "support/mutate.h"

namespace svard::fuzz {

std::string
mutate(const std::string &text, Rng &rng, const std::string &alphabet,
       const std::vector<std::string> &tokens)
{
    std::string m = text;
    for (uint64_t edits = 1 + rng.below(3); edits-- > 0;) {
        const size_t at = rng.below(m.size() + 1);
        switch (rng.below(7)) {
        case 0:
            m.insert(at, 1, alphabet[rng.below(alphabet.size())]);
            break;
        case 1:
            if (at < m.size())
                m[at] = alphabet[rng.below(alphabet.size())];
            break;
        case 2:
            m.erase(at, 1 + rng.below(4));
            break;
        case 3:
            m.insert(at, m.substr(rng.below(m.size() + 1),
                                  1 + rng.below(8)));
            break;
        case 4:
            m.resize(at);
            break;
        case 5:
            m.replace(at, rng.below(m.size() - at + 1),
                      tokens[rng.below(tokens.size())]);
            break;
        default:
            m = tokens[rng.below(tokens.size())];
            break;
        }
    }
    return m;
}

} // namespace svard::fuzz
