#include "fetch/superblock.hh"

namespace tepic::fetch {

namespace {

/// Absorb only well-biased edges: a side exit taken at most this often.
constexpr double kMaxSideExitProb = 0.15;

/// Most ops in one unit.
constexpr std::size_t kMaxOps = 32;

} // namespace

FetchUnits
formFetchUnits(const isa::VliwProgram &program,
               const sim::BlockTrace &trace,
               const FetchUnitConfig &config)
{
    const std::size_t n = program.blocks().size();

    // Dynamic side-exit bias per block.
    std::vector<std::uint64_t> exec(n, 0);
    std::vector<std::uint64_t> taken(n, 0);
    const sim::TraceView events = trace.view();
    for (std::size_t i = 0; i < events.size(); ++i) {
        ++exec[events.block(i)];
        taken[events.block(i)] += events.taken(i);
    }

    // Static predecessor counts (side entrances are forbidden).
    std::vector<unsigned> preds(n, 0);
    for (const auto &blk : program.blocks()) {
        if (blk.fallthrough != isa::kNoBlock)
            ++preds[blk.fallthrough];
        if (blk.branchTarget != isa::kNoBlock)
            ++preds[blk.branchTarget];
    }

    FetchUnits units;
    units.headOf.assign(n, isa::kNoBlock);
    units.lengthOf.assign(n, 0);

    auto endsInCallOrRet = [&](const isa::VliwBlock &blk) {
        if (blk.mops.empty())
            return false;
        const auto &ops = blk.mops.back().ops();
        for (const auto &op : ops) {
            if (op.isBranch() &&
                (op.opcode() == isa::Opcode::kCall ||
                 op.opcode() == isa::Opcode::kRet)) {
                return true;
            }
        }
        return false;
    };

    for (std::size_t b = 0; b < n; ++b) {
        if (units.headOf[b] != isa::kNoBlock)
            continue;  // already absorbed
        const isa::BlockId head = isa::BlockId(b);
        units.headOf[b] = head;
        std::uint32_t length = 1;
        std::size_t ops = program.block(head).opCount();

        isa::BlockId cur = head;
        while (length < config.maxBlocks) {
            const auto &blk = program.block(cur);
            const isa::BlockId next = blk.fallthrough;
            if (next == isa::kNoBlock || next != cur + 1)
                break;
            if (endsInCallOrRet(blk))
                break;
            if (preds[next] != 1)
                break;  // side entrance
            // Side-exit bias: unexecuted blocks get no benefit of the
            // doubt (prob treated as 1).
            if (blk.endsInBranch()) {
                if (exec[cur] == 0)
                    break;
                const double prob =
                    double(taken[cur]) / double(exec[cur]);
                if (prob > kMaxSideExitProb)
                    break;
            }
            const std::size_t next_ops =
                program.block(next).opCount();
            if (ops + next_ops > kMaxOps)
                break;
            units.headOf[next] = head;
            ops += next_ops;
            ++length;
            cur = next;
        }
        units.lengthOf[head] = length;
        ++units.units;
        if (length > 1)
            ++units.multiBlockUnits;
    }
    return units;
}

} // namespace tepic::fetch
