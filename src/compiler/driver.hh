/**
 * @file
 * The compiler driver: one call from tinkerc source text to a
 * scheduled TEPIC program.
 *
 * Pipeline: parse -> IR generation -> optimisation -> weight
 * estimation -> lowering -> register allocation -> emission ->
 * layout -> VLIW scheduling.
 *
 * Profile-guided recompilation (the paper's compiler is profile-driven,
 * §2.1) is a second layout+schedule pass over the same emitted code:
 * run the single-pass output through the emulator, then hand the
 * measured block counts to applyProfileAndRelayout(). That returns
 * where each old block landed, from which sim::deriveExecution() builds
 * the relaid-out program's execution out of the profile run's trace, so
 * each program is emulated once. The driver keeps no emulator
 * dependency; core::ArtifactEngine orchestrates the loop.
 */

#ifndef TEPIC_COMPILER_DRIVER_HH
#define TEPIC_COMPILER_DRIVER_HH

#include <string>

#include "compiler/emit.hh"
#include "compiler/opt.hh"
#include "compiler/regalloc.hh"
#include "asmgen/hoist.hh"
#include "asmgen/layout.hh"
#include "compiler/schedule.hh"
#include "isa/program.hh"

namespace tepic::compiler {

struct CompileOptions
{
    /** Run the IR optimisation pipeline (opt.hh); off is -O0. */
    bool optimise = true;
    isa::MachineConfig machine = isa::MachineConfig::paperDefault();

    /** Treegion-style speculative hoisting (§3.1; on by default). */
    asmgen::HoistOptions hoist;
};

struct CompiledProgram
{
    isa::VliwProgram program;
    DataSegment data;
    ScheduleStats schedStats;
    RegAllocStats raStats;
    asmgen::HoistStats hoistStats;

    /** Options replayed by applyProfileAndRelayout(). */
    asmgen::HoistOptions hoistOptions;

    /** Kept for profile-guided re-layout. */
    EmittedProgram emitted;

    /** Global block id -> (function, function-local block) origin. */
    std::vector<asmgen::BlockOrigin> blockSource;
};

/** Compile tinkerc source text. Fatal on any front-end error. */
CompiledProgram compileSource(const std::string &source,
                              const CompileOptions &options = {});

/**
 * Fold measured per-block execution counts (indexed by the *current*
 * program's global block ids) back into the emitted code's weights and
 * redo layout + scheduling. The compiled program is updated in place;
 * block ids generally change.
 *
 * Returns the new id of every old block, indexed by old id; an old
 * jump stub has no counterpart and maps to isa::kNoBlock. Every
 * emitted block is placed in both layouts, so the new blocks that no
 * old id maps to are exactly the new layout's stubs.
 */
std::vector<isa::BlockId>
applyProfileAndRelayout(CompiledProgram &compiled,
                        const std::vector<std::uint64_t> &counts,
                        const isa::MachineConfig &machine);

} // namespace tepic::compiler

#endif // TEPIC_COMPILER_DRIVER_HH
