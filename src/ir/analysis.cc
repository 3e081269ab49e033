#include "ir/analysis.hh"

#include <algorithm>
#include <functional>

#include "support/logging.hh"

namespace tepic::ir {

std::vector<std::vector<std::uint32_t>>
predecessors(const IrFunction &fn)
{
    std::vector<std::vector<std::uint32_t>> preds(fn.blocks.size());
    for (std::uint32_t b = 0; b < fn.blocks.size(); ++b)
        for (auto succ : fn.blocks[b].successors())
            preds[succ].push_back(b);
    return preds;
}

std::vector<std::uint32_t>
reversePostorder(const IrFunction &fn)
{
    std::vector<std::uint32_t> order;
    std::vector<char> visited(fn.blocks.size(), 0);

    // Iterative postorder DFS from the entry block.
    struct Frame { std::uint32_t block; std::size_t next; };
    std::vector<Frame> stack;
    stack.push_back({0, 0});
    visited[0] = 1;
    while (!stack.empty()) {
        Frame &frame = stack.back();
        const auto succs = fn.blocks[frame.block].successors();
        if (frame.next < succs.size()) {
            const std::uint32_t succ = succs[frame.next++];
            if (!visited[succ]) {
                visited[succ] = 1;
                stack.push_back({succ, 0});
            }
        } else {
            order.push_back(frame.block);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

std::vector<unsigned>
loopDepths(const IrFunction &fn)
{
    const std::size_t n = fn.blocks.size();
    std::vector<unsigned> depth(n, 0);
    const auto preds = predecessors(fn);

    // DFS colouring to find back edges.
    enum { kWhite, kGrey, kBlack };
    std::vector<char> colour(n, kWhite);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> back_edges;

    struct Frame { std::uint32_t block; std::size_t next; };
    std::vector<Frame> stack;
    stack.push_back({0, 0});
    colour[0] = kGrey;
    while (!stack.empty()) {
        Frame &frame = stack.back();
        const auto succs = fn.blocks[frame.block].successors();
        if (frame.next < succs.size()) {
            const std::uint32_t succ = succs[frame.next++];
            if (colour[succ] == kWhite) {
                colour[succ] = kGrey;
                stack.push_back({succ, 0});
            } else if (colour[succ] == kGrey) {
                back_edges.emplace_back(frame.block, succ);
            }
        } else {
            colour[frame.block] = kBlack;
            stack.pop_back();
        }
    }

    // For each back edge (latch -> header), the natural loop body is
    // the header plus everything that reaches the latch without going
    // through the header. Each loop membership adds one depth level.
    for (const auto &[latch, header] : back_edges) {
        std::vector<char> in_loop(n, 0);
        in_loop[header] = 1;
        std::vector<std::uint32_t> work;
        if (!in_loop[latch]) {
            in_loop[latch] = 1;
            work.push_back(latch);
        }
        while (!work.empty()) {
            const std::uint32_t b = work.back();
            work.pop_back();
            for (auto pred : preds[b]) {
                if (!in_loop[pred]) {
                    in_loop[pred] = 1;
                    work.push_back(pred);
                }
            }
        }
        for (std::size_t b = 0; b < n; ++b)
            if (in_loop[b])
                ++depth[b];
    }
    return depth;
}

void
estimateWeights(IrFunction &fn)
{
    const auto depths = loopDepths(fn);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        double w = 1.0;
        for (unsigned d = 0; d < depths[b]; ++d)
            w *= kLoopWeightFactor;
        fn.blocks[b].weight = w;
    }
}

void
applyProfile(IrFunction &fn,
             const std::vector<std::uint64_t> &block_counts)
{
    TEPIC_ASSERT(block_counts.size() == fn.blocks.size(),
                 "profile size mismatch for ", fn.name);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b)
        fn.blocks[b].weight = double(block_counts[b]);
}

void
removeUnreachable(IrFunction &fn)
{
    const std::size_t n = fn.blocks.size();
    std::vector<char> reachable(n, 0);
    std::vector<std::uint32_t> work{0};
    reachable[0] = 1;
    while (!work.empty()) {
        const std::uint32_t b = work.back();
        work.pop_back();
        for (auto succ : fn.blocks[b].successors()) {
            if (!reachable[succ]) {
                reachable[succ] = 1;
                work.push_back(succ);
            }
        }
    }

    std::vector<std::uint32_t> remap(n, 0);
    std::vector<IrBlock> kept;
    for (std::size_t b = 0; b < n; ++b) {
        if (reachable[b]) {
            remap[b] = std::uint32_t(kept.size());
            kept.push_back(std::move(fn.blocks[b]));
        }
    }
    for (auto &blk : kept) {
        IrInstr &term = blk.instrs.back();
        if (term.op == IrOp::kJmp) {
            term.target0 = remap[term.target0];
        } else if (term.op == IrOp::kBr) {
            term.target0 = remap[term.target0];
            term.target1 = remap[term.target1];
        }
    }
    fn.blocks = std::move(kept);
}

} // namespace tepic::ir
