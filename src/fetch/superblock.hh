/**
 * @file
 * Complex (superblock-style) fetch units — the paper's third
 * future-work item (§7: "usage of complex blocks as fetch units";
 * §3.1 sketches the requirements: side exits allowed if rarely taken,
 * no side entrances, an invalidation story for partial fetches).
 *
 * A fetch unit is a maximal chain of layout-consecutive basic blocks
 * linked by fallthrough edges where, per the dynamic profile, the
 * side exit is rarely taken and the absorbed block has no other
 * predecessor. The unit becomes the atomic quantum of the IFetch
 * engine:
 *
 *  - one ATT entry per unit (the ATT shrinks accordingly);
 *  - one ATB access + one next-unit prediction per unit traversal;
 *  - the whole unit's lines fetch together (restricted placement);
 *  - a side exit taken mid-unit is charged as a misprediction (the
 *    engine was streaming toward the tail).
 *
 * There is no separate unit simulator: simulateFetch() walks units
 * whenever FetchConfig::units is set (plain fetch is the identity
 * partition), so units see the same ATB/predictor, L1, L0, Table-1
 * cycle model and recorders as basic blocks. Formation is
 * compiler-side (profile-driven), exactly like superblock formation
 * in the paper's compiler lineage [21].
 */

#ifndef TEPIC_FETCH_SUPERBLOCK_HH
#define TEPIC_FETCH_SUPERBLOCK_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "sim/emulator.hh"

namespace tepic::fetch {

struct FetchUnitConfig
{
    unsigned maxBlocks = 4;  ///< 1 forms no multi-block unit
};

/** The unit partition: heads, membership and geometry. */
struct FetchUnits
{
    /** Head block id of the unit containing each block. */
    std::vector<isa::BlockId> headOf;

    /** For each head: number of consecutive blocks in its unit. */
    std::vector<std::uint32_t> lengthOf;

    std::uint32_t units = 0;
    std::uint32_t multiBlockUnits = 0;

    bool isHead(isa::BlockId b) const { return headOf[b] == b; }

    double
    averageBlocksPerUnit() const
    {
        return units ? double(headOf.size()) / double(units) : 0.0;
    }
};

/**
 * Form fetch units from the CFG plus the measured trace (taken
 * frequencies come from it, like the paper's profile-driven blocks).
 */
FetchUnits formFetchUnits(const isa::VliwProgram &program,
                          const sim::BlockTrace &trace,
                          const FetchUnitConfig &config = {});

} // namespace tepic::fetch

#endif // TEPIC_FETCH_SUPERBLOCK_HH
