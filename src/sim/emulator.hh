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
 * every fetch/power simulation: one 32-bit word per dynamic block, the
 * block id and whether a taken branch left it (TraceWord), with the
 * successor implied by the word that follows.
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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compiler/emit.hh"
#include "isa/program.hh"

namespace tepic::sim {

/**
 * One dynamic block execution, as read from a trace by value
 * (TraceView::event()); no trace stores it.
 */
struct TraceEvent
{
    isa::BlockId block;          ///< block that executed
    isa::BlockId next;           ///< block control went to
    bool branchTaken;            ///< via taken branch (vs fallthrough)

    bool operator==(const TraceEvent &) const = default;
};

/**
 * One dynamic block of a trace: the block id in the low 31 bits, the
 * taken flag in bit 31. The successor is not stored: it is the next
 * word's block, or kHaltBlockId after the last word.
 */
using TraceWord = std::uint32_t;
static_assert(sizeof(TraceWord) == 4, "one 32-bit word per block");

/** A read-only view of a trace's words: a pointer and a size, which a
 *  loop keeps in registers. */
class TraceView
{
  public:
    static constexpr TraceWord kTakenBit = TraceWord(1) << 31;
    /** Block ids a trace can hold: those below the taken bit. */
    static constexpr std::size_t kMaxBlocks = kTakenBit;

    TraceView(const TraceWord *words, std::size_t size)
        : words_(words), size_(size) {}

    std::size_t size() const { return size_; }

    isa::BlockId block(std::size_t i) const
    {
        return words_[i] & ~kTakenBit;
    }
    bool taken(std::size_t i) const { return (words_[i] & kTakenBit) != 0; }
    isa::BlockId next(std::size_t i) const
    {
        return i + 1 < size_ ? block(i + 1) : compiler::kHaltBlockId;
    }
    TraceEvent event(std::size_t i) const
    {
        return {block(i), next(i), taken(i)};
    }

  private:
    const TraceWord *words_;
    std::size_t size_;
};

/** The dynamic block-level trace of one program run. */
struct BlockTrace
{
    /** One word per dynamic block, in execution order. */
    std::vector<TraceWord> events;

    /** Append a run of @p block, left by a taken branch iff @p taken;
     *  @p block must be below TraceView::kMaxBlocks. */
    void push(isa::BlockId block, bool taken)
    {
        events.push_back(block | (taken ? TraceView::kTakenBit : 0));
    }
    TraceView view() const { return {events.data(), events.size()}; }
    TraceEvent event(std::size_t i) const { return view().event(i); }

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
