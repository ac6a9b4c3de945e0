/**
 * @file
 * Deterministic mutation of parser inputs for the in-repo fuzz tests.
 * Seeded from common/rng.h, with no libFuzzer, so a failing mutant
 * reproduces from its test's seed alone.
 */
#ifndef SVARD_TESTS_SUPPORT_MUTATE_H
#define SVARD_TESTS_SUPPORT_MUTATE_H

#include <string>
#include <vector>

#include "common/rng.h"

namespace svard::fuzz {

/**
 * One to three random edits of `text`: a byte of `alphabet` inserted
 * or written over one, up to four bytes deleted, a slice duplicated,
 * the tail cut, or one of `tokens` spliced over a span or over the
 * whole text.
 */
std::string mutate(const std::string &text, Rng &rng,
                   const std::string &alphabet,
                   const std::vector<std::string> &tokens);

} // namespace svard::fuzz

#endif // SVARD_TESTS_SUPPORT_MUTATE_H
