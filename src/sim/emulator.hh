/**
 * @file
 * Functional TEPIC emulator (the stand-in for the paper's TINKER YULA
 * emulation tool, DESIGN.md §2).
 *
 * Executes a scheduled VliwProgram block-atomically: within a MOP all
 * register reads happen at issue (before any write of the same MOP);
 * memory operations within a MOP are independent by scheduler
 * construction. The emulator both validates compiled programs (its
 * exit value is checked against native reference implementations in
 * the workload suite) and produces the dynamic block trace that drives
 * every fetch/power simulation.
 *
 * A profile-guided build emulates each program once: the profile run
 * records its trace, and deriveExecution() turns that trace into the
 * execution of the relaid-out program. emulate() stays the oracle the
 * tests and `tepicc verify` hold the derivation to.
 *
 * Conventions (must match the compiler):
 *  - r0 = 0, r30 = SP, r31 = link, p0 = true;
 *  - the link register holds *block ids*, not byte addresses (§3.3 of
 *    DESIGN.md: the block id doubles as the ATT index);
 *  - a `ret` into kHaltBlockId ends the program, exit value in r3.
 */

#ifndef TEPIC_SIM_EMULATOR_HH
#define TEPIC_SIM_EMULATOR_HH

#include <cstdint>
#include <vector>

#include "compiler/emit.hh"
#include "isa/program.hh"

namespace tepic::sim {

/** One dynamic block execution. */
struct TraceEvent
{
    isa::BlockId block;          ///< block that executed
    isa::BlockId next;           ///< block control went to
    bool branchTaken;            ///< via taken branch (vs fallthrough)

    bool operator==(const TraceEvent &) const = default;
};

/** The dynamic block-level trace of one program run. */
struct BlockTrace
{
    std::vector<TraceEvent> events;

    bool operator==(const BlockTrace &) const = default;
};

/** The emulated data memory; the stack starts at its top. */
inline constexpr std::size_t kMemoryBytes = 512 * 1024;

struct EmulatorConfig
{
    std::uint64_t maxMops = 500'000'000;  ///< runaway guard
    bool recordTrace = true;
};

struct EmulationResult
{
    std::int32_t exitValue = 0;
    std::uint64_t dynamicOps = 0;
    std::uint64_t dynamicMops = 0;
    std::uint64_t dynamicBlocks = 0;
    BlockTrace trace;
    std::vector<std::uint64_t> blockCounts;  ///< per block id

    bool operator==(const EmulationResult &) const = default;
};

/** Run @p program to completion. */
EmulationResult emulate(const isa::VliwProgram &program,
                        const compiler::DataSegment &data,
                        const EmulatorConfig &config = {});

/**
 * The execution of @p program, a relaid-out program, derived from
 * @p profile, a traced run of its previous layout, instead of emulated.
 *
 * Relayout moves blocks and reschedules ops inside them; it never
 * changes which emitted blocks run or in what order. So the new run
 * follows from the profile trace and @p newIds, the old-id -> new-id
 * map compiler::applyProfileAndRelayout() returns. The result equals
 * emulate(program, data, config) in every field, event by event, and
 * the call is fatal, with emulate()'s message, when its MOP total
 * exceeds config.maxMops.
 */
EmulationResult deriveExecution(const EmulationResult &profile,
                                const std::vector<isa::BlockId> &newIds,
                                const isa::VliwProgram &program,
                                const EmulatorConfig &config = {});

} // namespace tepic::sim

#endif // TEPIC_SIM_EMULATOR_HH
