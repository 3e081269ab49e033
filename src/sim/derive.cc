#include "sim/emulator.hh"

#include "support/logging.hh"

namespace tepic::sim {

namespace {

/** How control leaves a block of the new layout. */
enum class Exit : std::uint8_t {
    kFallthrough,  ///< no branch: never taken
    kAlways,       ///< br, call, ret: always taken
    kConditional,  ///< taken iff the branch target is the destination
};

/** What the derivation needs of one block of the new layout. */
struct BlockShape
{
    Exit exit = Exit::kFallthrough;
    /** The fallthrough is a jump stub (a conditional's else side). */
    bool stubFallthrough = false;
    /**
     * Both sides of a conditional reach one block (then == else), so
     * the destination cannot tell taken from not taken.
     */
    bool sidesMeet = false;
    isa::BlockId branchTarget = isa::kNoBlock;
    isa::BlockId fallthrough = isa::kNoBlock;
    /** Where the not-taken side ends up: past the stub, if any. */
    isa::BlockId reach = isa::kNoBlock;
};

Exit
exitOf(const isa::VliwBlock &blk)
{
    if (!blk.endsInBranch())
        return Exit::kFallthrough;
    for (const auto &op : blk.mops.back().ops()) {
        if (!op.isBranch())
            continue;
        switch (op.opcode()) {
          case isa::Opcode::kBr:
          case isa::Opcode::kCall:
          case isa::Opcode::kRet:
            TEPIC_ASSERT(op.pred() == isa::kPredTrue, "block ",
                         blk.label, " ends in a guarded unconditional "
                         "branch");
            return Exit::kAlways;
          default:
            return Exit::kConditional;
        }
    }
    TEPIC_PANIC("block ", blk.label, " has no branch op");
}

} // namespace

EmulationResult
deriveExecution(const EmulationResult &profile,
                const std::vector<isa::BlockId> &newIds,
                const isa::VliwProgram &program,
                const EmulatorConfig &config)
{
    const auto &blocks = program.blocks();
    const TraceView events = profile.trace.view();
    TEPIC_ASSERT(blocks.size() <= TraceView::kMaxBlocks, "program has ",
                 blocks.size(), " blocks, more than a trace word holds");
    TEPIC_ASSERT(newIds.size() == profile.blockCounts.size(),
                 "relayout map covers ", newIds.size(), " blocks, the "
                 "profile ", profile.blockCounts.size());
    TEPIC_ASSERT(events.size() == profile.dynamicBlocks,
                 "the profile run kept no trace");

    // Every emitted block is placed in both layouts, so the new blocks
    // no old id maps to are exactly the new layout's stubs.
    std::vector<char> is_stub(blocks.size(), 1);
    for (isa::BlockId id : newIds)
        if (id != isa::kNoBlock)
            is_stub[id] = 0;
    std::vector<BlockShape> shapes(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        BlockShape &shape = shapes[b];
        shape.exit = exitOf(blocks[b]);
        shape.branchTarget = blocks[b].branchTarget;
        shape.fallthrough = blocks[b].fallthrough;
        shape.reach = shape.fallthrough;
        if (shape.exit != Exit::kConditional)
            continue;
        shape.stubFallthrough = shape.fallthrough < blocks.size() &&
                                is_stub[shape.fallthrough] != 0;
        if (shape.stubFallthrough)
            shape.reach = blocks[shape.fallthrough].branchTarget;
        shape.sidesMeet = shape.branchTarget == shape.reach;
    }

    EmulationResult result;
    result.exitValue = profile.exitValue;
    result.blockCounts.assign(blocks.size(), 0);
    const bool record_trace = config.recordTrace;
    if (record_trace) {
        // One event per old non-stub event, plus one per pass through
        // a new stub, which at most every run of its branch block makes.
        std::size_t bound = 0;
        for (std::size_t g = 0; g < newIds.size(); ++g) {
            if (newIds[g] != isa::kNoBlock)
                bound += profile.blockCounts[g] *
                         (1 + shapes[newIds[g]].stubFallthrough);
        }
        result.trace.events.reserve(bound);
    }

    for (std::size_t i = 0; i < events.size(); ++i) {
        const isa::BlockId block = newIds[events.block(i)];
        if (block == isa::kNoBlock)
            continue;  // an old stub: the event before reached past it
        isa::BlockId dest = events.next(i);
        if (dest != compiler::kHaltBlockId) {
            dest = newIds[dest];
            if (dest == isa::kNoBlock)  // through an old stub: its jump
                dest = newIds[events.next(i + 1)];
        }
        const BlockShape &shape = shapes[block];
        bool taken = true;
        if (shape.exit != Exit::kAlways) {
            taken = shape.exit == Exit::kConditional &&
                    (shape.sidesMeet ? events.taken(i)
                                     : dest == shape.branchTarget);
            TEPIC_ASSERT(dest == (taken ? shape.branchTarget : shape.reach),
                         "block ", blocks[block].label, " cannot reach ",
                         dest, " in the new layout");
        }
        ++result.blockCounts[block];
        if (!taken && shape.stubFallthrough) {
            ++result.blockCounts[shape.fallthrough];
            if (record_trace) {
                result.trace.push(block, false);
                result.trace.push(shape.fallthrough, true);
            }
        } else if (record_trace) {
            result.trace.push(block, taken);
        }
    }

    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::uint64_t count = result.blockCounts[b];
        result.dynamicBlocks += count;
        result.dynamicOps += count * blocks[b].opCount();
        result.dynamicMops += count * blocks[b].mops.size();
    }
    // The emulator's MOP count only grows, so it trips its budget
    // exactly when the whole run's total exceeds it.
    if (result.dynamicMops > config.maxMops)
        TEPIC_FATAL("emulated MOP budget exceeded (", config.maxMops,
                    "): runaway program?");
    return result;
}

} // namespace tepic::sim
