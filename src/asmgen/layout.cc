#include "asmgen/layout.hh"

#include <algorithm>

#include "support/logging.hh"

namespace tepic::asmgen {

namespace {

using compiler::EmittedBlock;
using compiler::EmittedProgram;
using isa::Opcode;
using isa::Operation;
using isa::OpType;

/** A placement entry: a real block or a synthetic jump stub. */
struct Placement
{
    std::uint32_t func = 0;
    std::uint32_t local = 0;       ///< block index within the function
    bool isStub = false;
    std::uint32_t stubTarget = 0;  ///< function-local target of a stub
};

/** Compute the chain-based order for one function's blocks. */
std::vector<std::uint32_t>
orderFunction(const compiler::EmittedFunction &fn)
{
    const std::size_t n = fn.blocks.size();
    std::vector<char> placed(n, 0);
    std::vector<std::uint32_t> order;
    order.reserve(n);

    auto chain_from = [&](std::uint32_t start) {
        std::uint32_t cur = start;
        while (true) {
            placed[cur] = 1;
            order.push_back(cur);
            const EmittedBlock &blk = fn.blocks[cur];
            std::uint32_t next = compiler::kNoTarget;
            switch (blk.term) {
              case EmittedBlock::Term::kCall:
                // The continuation must physically follow the call.
                next = blk.thenTarget;
                TEPIC_ASSERT(!placed[next],
                             "call continuation already placed");
                break;
              case EmittedBlock::Term::kJmp:
                if (!placed[blk.thenTarget])
                    next = blk.thenTarget;
                break;
              case EmittedBlock::Term::kBr: {
                const bool else_ok = !placed[blk.elseTarget];
                const bool then_ok = !placed[blk.thenTarget];
                if (else_ok && then_ok) {
                    // Prefer the hotter side as fallthrough; ties keep
                    // the not-taken side inline.
                    const double we = fn.blocks[blk.elseTarget].weight;
                    const double wt = fn.blocks[blk.thenTarget].weight;
                    next = wt > we ? blk.thenTarget : blk.elseTarget;
                } else if (else_ok) {
                    next = blk.elseTarget;
                } else if (then_ok) {
                    next = blk.thenTarget;
                }
                break;
              }
              case EmittedBlock::Term::kRet:
                break;
            }
            if (next == compiler::kNoTarget)
                break;
            cur = next;
        }
    };

    chain_from(0);
    // Remaining blocks: hottest first.
    while (true) {
        std::uint32_t best = compiler::kNoTarget;
        double best_w = -1.0;
        for (std::uint32_t b = 0; b < n; ++b) {
            if (!placed[b] && fn.blocks[b].weight > best_w) {
                best = b;
                best_w = fn.blocks[b].weight;
            }
        }
        if (best == compiler::kNoTarget)
            break;
        chain_from(best);
    }
    return order;
}

Operation
makeBranch(Opcode opcode, unsigned pred, std::uint32_t target)
{
    Operation op = Operation::make(OpType::kBranch, opcode);
    op.setPred(pred);
    op.setTarget(target);
    return op;
}

} // namespace

LaidOutProgram
layoutProgram(const EmittedProgram &prog)
{
    // 1. Placement order: main first, then remaining functions.
    std::vector<Placement> placements;
    std::vector<std::uint32_t> func_order;
    func_order.push_back(prog.mainIndex);
    for (std::uint32_t f = 0; f < prog.functions.size(); ++f)
        if (f != prog.mainIndex)
            func_order.push_back(f);

    // Per-function local order, with stubs inserted where a
    // conditional branch has neither target as fallthrough.
    for (auto f : func_order) {
        const auto &fn = prog.functions[f];
        const auto order = orderFunction(fn);
        for (std::size_t i = 0; i < order.size(); ++i) {
            const std::uint32_t local = order[i];
            placements.push_back({f, local, false, 0});
            const EmittedBlock &blk = fn.blocks[local];
            if (blk.term == EmittedBlock::Term::kBr) {
                const std::uint32_t next =
                    i + 1 < order.size() ? order[i + 1]
                                         : compiler::kNoTarget;
                if (blk.thenTarget != next && blk.elseTarget != next) {
                    // Synthetic block: unconditional jump to the
                    // fallthrough side.
                    placements.push_back(
                        {f, local, true, blk.elseTarget});
                }
            }
        }
    }

    // 2. Assign global ids.
    TEPIC_ASSERT(placements.size() < compiler::kHaltBlockId,
                 "program too large for 16-bit block ids");
    // globalId[func][local] -> id of the block's placement
    std::vector<std::vector<isa::BlockId>> global_id(
        prog.functions.size());
    for (std::uint32_t f = 0; f < prog.functions.size(); ++f)
        global_id[f].assign(prog.functions[f].blocks.size(),
                            isa::kNoBlock);
    for (std::size_t i = 0; i < placements.size(); ++i) {
        const auto &p = placements[i];
        if (!p.isStub)
            global_id[p.func][p.local] = isa::BlockId(i);
    }

    // 3. Materialise blocks with concrete control ops.
    LaidOutProgram out;
    out.data = prog.data;
    out.entry = global_id[prog.mainIndex][0];
    TEPIC_ASSERT(out.entry == 0, "main entry must be block 0");

    for (std::size_t i = 0; i < placements.size(); ++i) {
        const auto &p = placements[i];
        const auto &fn = prog.functions[p.func];
        out.blockSource.push_back({p.func, p.local, p.isStub});
        LayoutBlock lb;

        if (p.isStub) {
            const isa::BlockId target = global_id[p.func][p.stubTarget];
            lb.ops.push_back(
                makeBranch(Opcode::kBr, isa::kPredTrue, target));
            lb.branchTarget = target;
            lb.fallthrough = isa::kNoBlock;
            lb.weight = fn.blocks[p.local].weight;
            lb.label = fn.blocks[p.local].label + ".stub";
            out.blocks.push_back(std::move(lb));
            continue;
        }

        const EmittedBlock &blk = fn.blocks[p.local];
        lb.ops = blk.ops;
        lb.weight = blk.weight;
        lb.label = blk.label;
        const isa::BlockId next = i + 1 < placements.size()
            ? isa::BlockId(i + 1) : isa::kNoBlock;

        switch (blk.term) {
          case EmittedBlock::Term::kJmp: {
            const isa::BlockId target =
                global_id[p.func][blk.thenTarget];
            // An atomic fetch block cannot be empty: a body-less
            // fallthrough block still materialises its jump.
            if (target == next && !lb.ops.empty()) {
                lb.fallthrough = next;
            } else {
                lb.ops.push_back(
                    makeBranch(Opcode::kBr, isa::kPredTrue, target));
                lb.branchTarget = target;
            }
            break;
          }
          case EmittedBlock::Term::kBr: {
            const isa::BlockId then_id =
                global_id[p.func][blk.thenTarget];
            const isa::BlockId else_id =
                global_id[p.func][blk.elseTarget];
            if (else_id == next) {
                // Taken -> then side.
                lb.ops.push_back(makeBranch(
                    blk.senseTrue ? Opcode::kBrct : Opcode::kBrcf,
                    blk.predReg, then_id));
                lb.branchTarget = then_id;
                lb.fallthrough = next;
            } else if (then_id == next) {
                // Invert: taken -> else side.
                lb.ops.push_back(makeBranch(
                    blk.senseTrue ? Opcode::kBrcf : Opcode::kBrct,
                    blk.predReg, else_id));
                lb.branchTarget = else_id;
                lb.fallthrough = next;
            } else {
                // The stub right after us handles the else side.
                lb.ops.push_back(makeBranch(
                    blk.senseTrue ? Opcode::kBrct : Opcode::kBrcf,
                    blk.predReg, then_id));
                lb.branchTarget = then_id;
                lb.fallthrough = next;  // the stub
            }
            break;
          }
          case EmittedBlock::Term::kRet: {
            Operation ret = Operation::make(OpType::kBranch,
                                            Opcode::kRet);
            ret.setSrc1(compiler::RegConv::kLink);
            lb.ops.push_back(std::move(ret));
            break;
          }
          case EmittedBlock::Term::kCall: {
            const isa::BlockId callee_entry =
                global_id[blk.calleeFunc][0];
            lb.ops.push_back(makeBranch(Opcode::kCall,
                                        isa::kPredTrue, callee_entry));
            lb.branchTarget = callee_entry;
            lb.fallthrough = next;  // the continuation
            TEPIC_ASSERT(global_id[p.func][blk.thenTarget] == next,
                         "call continuation not adjacent");
            break;
          }
        }
        out.blocks.push_back(std::move(lb));
    }
    return out;
}

support::SizeLedger
imageLayoutRollup(
    const isa::Image &image, const std::vector<BlockOrigin> &blockSource,
    const std::vector<std::string> &functionNames)
{
    TEPIC_ASSERT(image.blocks.size() == blockSource.size(),
                 "image/blockSource size mismatch: ",
                 image.blocks.size(), " vs ", blockSource.size());
    support::SizeLedger ledger;
    std::size_t prev_end = 0;
    for (std::size_t i = 0; i < image.blocks.size(); ++i) {
        const isa::BlockLayout &layout = image.blocks[i];
        const BlockOrigin &origin = blockSource[i];
        TEPIC_ASSERT(origin.func < functionNames.size(),
                     "blockSource function index out of range");
        const std::string prefix = "func/" + functionNames[origin.func];
        // Alignment pad sits *before* the block it aligns.
        TEPIC_ASSERT(layout.bitOffset >= prev_end,
                     "blocks not in layout order");
        ledger.addBits(prefix + "/align_pad",
                       layout.bitOffset - prev_end);
        ledger.addBits(prefix + "/b" + std::to_string(origin.local),
                       layout.bitSize);
        prev_end = layout.bitOffset + layout.bitSize;
    }
    TEPIC_ASSERT(prev_end == image.bitSize,
                 "image ends at ", image.bitSize, " bits but last "
                 "block ends at ", prev_end);
    ledger.assertTiles(image.bitSize, image.scheme + " layout");
    return ledger;
}

} // namespace tepic::asmgen
