/**
 * @file
 * CFG analyses over IrFunction: predecessors, reverse postorder,
 * natural-loop depth, and static execution-frequency estimation.
 *
 * The frequency estimate drives treegion formation and final code
 * layout when no dynamic profile is supplied. With a dynamic profile
 * (from the emulator) the estimated weights are replaced by measured
 * block counts — the paper's compiler is profile-driven, and the
 * library supports both modes.
 */

#ifndef TEPIC_IR_ANALYSIS_HH
#define TEPIC_IR_ANALYSIS_HH

#include <cstdint>
#include <vector>

#include "ir/ir.hh"

namespace tepic::ir {

/** Predecessor lists for every block of @p fn. */
std::vector<std::vector<std::uint32_t>> predecessors(const IrFunction &fn);

/** Reverse postorder over blocks reachable from the entry. */
std::vector<std::uint32_t> reversePostorder(const IrFunction &fn);

/**
 * Natural-loop nesting depth per block, computed from DFS back edges
 * (an edge u->v is a back edge when v is an ancestor of u in the DFS
 * tree; all blocks on paths from v to u belong to v's loop).
 */
std::vector<unsigned> loopDepths(const IrFunction &fn);

/**
 * Estimate per-block execution frequency: entry has weight 1, each
 * loop level multiplies by kLoopWeightFactor. Writes IrBlock::weight.
 */
void estimateWeights(IrFunction &fn);

/** Static weight multiplier per loop nesting level. */
inline constexpr double kLoopWeightFactor = 10.0;

/** Replace block weights with measured dynamic counts. */
void applyProfile(IrFunction &fn,
                  const std::vector<std::uint64_t> &block_counts);

/** Remove blocks unreachable from the entry; patches branch targets. */
void removeUnreachable(IrFunction &fn);

} // namespace tepic::ir

#endif // TEPIC_IR_ANALYSIS_HH
