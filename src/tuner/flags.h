/**
 * @file
 * The tuner's view of the 2^N flag space: its size, flag display
 * names, and enumeration over passes::FlagSet, the N-bit encoding of
 * the gated pass flags sized from the pass registry.
 */
#ifndef GSOPT_TUNER_FLAGS_H
#define GSOPT_TUNER_FLAGS_H

#include <cstdint>
#include <vector>

#include "passes/passes.h"

namespace gsopt::tuner {

// The pass-selection vocabulary is passes' own: one flag-set type
// and one bit enum.
using passes::FlagSet;
using passes::kAdce;
using passes::kCoalesce;
using passes::kGvn;
using passes::kReassociate;
using passes::kUnroll;
using passes::kHoist;
using passes::kFpReassociate;
using passes::kDivToMul;

/** Number of registered gated passes (N bits of the flag space). */
size_t flagCount();

/** 2^flagCount(): size of the combination space (256 by default). */
uint64_t comboCount();

/** Display name of a flag bit (registry display name; paper Table I
 * column spellings for the built-in eight). The pointer stays valid
 * while the owning pass remains registered — built-in names live for
 * the process, but don't cache a ScopedPass name past its scope. */
const char *flagName(int bit);

/** All 2^N combinations in numeric order (256 by default). Throws
 * std::length_error when the registered pass count makes exhaustive
 * enumeration infeasible (see checkExhaustiveFeasible). */
std::vector<FlagSet> allFlagSets();

/**
 * Guard for every 2^N surface (exhaustive exploration, combination
 * enumeration, best-static scans): throws std::length_error naming
 * @p who when more than 20 passes are registered, keeping per-shader
 * allocations bounded (2^20 combos ≈ 8 MB of combo bookkeeping per
 * worker) instead of dying on a multi-GB attempt.
 */
void checkExhaustiveFeasible(const char *who);

} // namespace gsopt::tuner

#endif // GSOPT_TUNER_FLAGS_H
