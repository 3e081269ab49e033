/**
 * @file
 * Machine-independent IR optimisations.
 *
 * The LEGO compiler the paper used is an optimising compiler; these
 * passes keep our generated code comparably clean so the static op
 * counts (and therefore compression ratios) are not inflated by
 * front-end noise:
 *
 *  - constant folding + algebraic simplification (block local),
 *  - copy propagation (block local),
 *  - common-subexpression elimination (block local, pure ops),
 *  - branch folding (constant conditions) and jump threading,
 *  - straight-line block merging (grows scheduling regions),
 *  - global dead-code elimination,
 *  - unreachable-block removal.
 *
 * The passes run as one pipeline or not at all
 * (CompileOptions::optimise; tepicc -O0 turns it off).
 */

#ifndef TEPIC_COMPILER_OPT_HH
#define TEPIC_COMPILER_OPT_HH

#include "ir/ir.hh"

namespace tepic::compiler {

/** Run the pass pipeline to a fixpoint over every function. */
void optimise(ir::IrModule &module);

} // namespace tepic::compiler

#endif // TEPIC_COMPILER_OPT_HH
