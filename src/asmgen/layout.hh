/**
 * @file
 * Final code layout: EmittedProgram -> ordered blocks with concrete
 * control-transfer operations and global block ids.
 *
 * The layout is weight-driven (the paper's compiler is profile-driven):
 * each function is laid out as greedy chains that keep the hottest
 * successor as the fallthrough, so taken branches are rarer on hot
 * paths. A call block's continuation is always placed immediately
 * after it — the continuation *is* the architectural return address.
 *
 * Branch targets are recorded as global block ids in the Branch
 * format's 16-bit target field (§3.3: the original address space is
 * block-granular and translated through the ATB at run time; using the
 * ATT entry index as the architectural target is equivalent and keeps
 * the field within 16 bits).
 */

#ifndef TEPIC_ASMGEN_LAYOUT_HH
#define TEPIC_ASMGEN_LAYOUT_HH

#include "compiler/emit.hh"
#include "isa/image.hh"
#include "isa/program.hh"
#include "support/size_ledger.hh"

namespace tepic::asmgen {

/** One block in final layout order. */
struct LayoutBlock
{
    std::vector<isa::Operation> ops;  ///< incl. trailing control op
    isa::BlockId fallthrough = isa::kNoBlock;
    isa::BlockId branchTarget = isa::kNoBlock;
    double weight = 1.0;
    std::string label;
};

/**
 * Origin of one laid-out block: (function index, function-local
 * emitted-block index). A synthetic jump stub carries the origin of
 * the branch block it serves and is marked @c stub.
 */
struct BlockOrigin
{
    std::uint32_t func = 0;
    std::uint32_t local = 0;
    bool stub = false;
};

/** A fully laid-out (but not yet scheduled) program. */
struct LaidOutProgram
{
    std::vector<LayoutBlock> blocks;
    isa::BlockId entry = 0;
    compiler::DataSegment data;

    /**
     * Origin of each laid-out block. Used to fold dynamic profiles
     * back into EmittedBlock weights and to map one layout's block ids
     * onto the next.
     */
    std::vector<BlockOrigin> blockSource;
};

/** Lay out @p prog (main's entry becomes block 0). */
LaidOutProgram layoutProgram(const compiler::EmittedProgram &prog);

/**
 * Per-function / per-block size rollup of an encoded @p image: the
 * layout's view of where the image bytes live, orthogonal to each
 * scheme's encoding-role ledger. Leaves:
 *
 *   func/<name>/b<local>   encoded bits of one emitted block (its
 *                          synthetic jump stub, if any, folds into
 *                          the branch block it serves)
 *   func/<name>/align_pad  byte-alignment waste preceding that
 *                          function's blocks (§3.3 block alignment)
 *
 * @p blockSource is LaidOutProgram::blockSource (carried on
 * compiler::CompiledProgram); @p functionNames indexes function ids
 * to their source names. Leaves tile image.bitSize exactly
 * (asserted).
 */
support::SizeLedger imageLayoutRollup(
    const isa::Image &image, const std::vector<BlockOrigin> &blockSource,
    const std::vector<std::string> &functionNames);

} // namespace tepic::asmgen

#endif // TEPIC_ASMGEN_LAYOUT_HH
