#include "compiler/opt.hh"

#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "ir/analysis.hh"
#include "support/logging.hh"

namespace tepic::compiler {

namespace {

using ir::IrBlock;
using ir::IrFunction;
using ir::IrInstr;
using ir::IrOp;
using ir::RegClass;
using ir::Vreg;

/** Ops with no side effects whose results depend only on operands. */
bool
isPure(IrOp op)
{
    switch (op) {
      case IrOp::kCall:
      case IrOp::kStore: case IrOp::kFstore:
      case IrOp::kLoad: case IrOp::kFload:  // not CSE-safe across stores
      case IrOp::kJmp: case IrOp::kBr: case IrOp::kRet:
        return false;
      default:
        return true;
    }
}

bool
hasDest(const IrInstr &instr)
{
    if (instr.op == IrOp::kCall)
        return instr.dest != ir::kNoVreg;
    return ir::destClass(instr.op) != RegClass::kNone;
}

/** Wrap to 32-bit two's-complement, the language's int semantics. */
std::int32_t
wrap32(std::int64_t v)
{
    return std::int32_t(std::uint32_t(std::uint64_t(v)));
}

std::optional<std::int32_t>
foldInt(IrOp op, std::int32_t a, std::int32_t b)
{
    switch (op) {
      case IrOp::kAdd: return wrap32(std::int64_t(a) + b);
      case IrOp::kSub: return wrap32(std::int64_t(a) - b);
      case IrOp::kMul: return wrap32(std::int64_t(a) * b);
      case IrOp::kDiv:
        if (b == 0 || (a == INT32_MIN && b == -1))
            return std::nullopt;
        return a / b;
      case IrOp::kRem:
        if (b == 0 || (a == INT32_MIN && b == -1))
            return std::nullopt;
        return a % b;
      case IrOp::kAnd: return a & b;
      case IrOp::kOr: return a | b;
      case IrOp::kXor: return a ^ b;
      case IrOp::kShl: return wrap32(std::int64_t(a) << (b & 31));
      case IrOp::kShr:
        return std::int32_t(std::uint32_t(a) >> (b & 31));
      case IrOp::kSra: return a >> (b & 31);
      case IrOp::kCmpEq: return a == b ? 1 : 0;
      case IrOp::kCmpNe: return a != b ? 1 : 0;
      case IrOp::kCmpLt: return a < b ? 1 : 0;
      case IrOp::kCmpLe: return a <= b ? 1 : 0;
      case IrOp::kCmpGt: return a > b ? 1 : 0;
      case IrOp::kCmpGe: return a >= b ? 1 : 0;
      default: return std::nullopt;
    }
}

/**
 * Block-local forward dataflow: constant values, copies and available
 * expressions, keyed by (class, vreg). State dies at block boundaries
 * because the IR is not SSA.
 */
class LocalPass
{
  public:
    explicit LocalPass(IrFunction &fn) : fn_(fn) {}

    bool
    run()
    {
        bool changed = false;
        for (auto &blk : fn_.blocks)
            changed |= runBlock(blk);
        return changed;
    }

  private:
    using Key = std::pair<int, Vreg>;  // (class, vreg)

    Key
    key(RegClass cls, Vreg v) const
    {
        return {cls == RegClass::kFloat ? 1 : 0, v};
    }

    void
    invalidate(RegClass cls, Vreg v)
    {
        if (v == ir::kNoVreg || cls == RegClass::kNone)
            return;
        const Key k = key(cls, v);
        constants_.erase(k);
        fconstants_.erase(k);
        copies_.erase(k);
        // Drop copies *of* v and expressions reading v.
        for (auto it = copies_.begin(); it != copies_.end();) {
            if (it->second == k)
                it = copies_.erase(it);
            else
                ++it;
        }
        for (auto it = exprs_.begin(); it != exprs_.end();) {
            // Drop expressions reading v *or* whose cached result is v.
            // Conservative across classes (matches by vreg number);
            // harmless, just loses a CSE chance.
            if (std::get<1>(it->first) == k.second ||
                std::get<2>(it->first) == k.second ||
                it->second == k.second) {
                it = exprs_.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** Rewrite a use through the copy table. */
    void
    propagate(RegClass cls, Vreg &v)
    {
        if (v == ir::kNoVreg || cls == RegClass::kNone)
            return;
        auto it = copies_.find(key(cls, v));
        if (it != copies_.end())
            v = it->second.second;
    }

    bool
    runBlock(IrBlock &blk)
    {
        constants_.clear();
        fconstants_.clear();
        copies_.clear();
        exprs_.clear();

        bool changed = false;
        for (auto &instr : blk.instrs) {
            hasCseCandidate_ = false;
            // 1. Copy-propagate all register uses.
            propagate(ir::src1Class(instr.op), instr.src1);
            propagate(ir::src2Class(instr.op), instr.src2);
            if (instr.op == IrOp::kCall) {
                for (std::size_t i = 0; i < instr.args.size(); ++i)
                    propagate(instr.argClasses[i], instr.args[i]);
            }
            if (instr.op == IrOp::kRet || instr.op == IrOp::kBr)
                propagate(instr.op == IrOp::kBr ? RegClass::kInt
                                                : instr.valueClass,
                          instr.src1);

            // 2. Constant-fold.
            changed |= tryFold(instr);

            // 3. Local CSE over pure binary/unary ops.
            if (isPure(instr.op) &&
                hasDest(instr) && instr.op != IrOp::kConst &&
                instr.op != IrOp::kFconst) {
                const auto ekey = std::make_tuple(
                    int(instr.op), instr.src1, instr.src2, instr.imm);
                auto found = exprs_.find(ekey);
                if (found != exprs_.end()) {
                    // Replace with a copy from the previous result.
                    const RegClass cls = ir::destClass(instr.op);
                    IrInstr mov;
                    mov.op = cls == RegClass::kFloat ? IrOp::kFmov
                                                     : IrOp::kMov;
                    mov.src1 = found->second;
                    mov.dest = instr.dest;
                    instr = std::move(mov);
                    changed = true;
                } else {
                    cseCandidate_ = ekey;
                    hasCseCandidate_ = true;
                }
            }

            // 4. Update dataflow state with this instr's definition.
            if (hasDest(instr)) {
                const RegClass cls = instr.op == IrOp::kCall
                    ? instr.valueClass : ir::destClass(instr.op);
                invalidate(cls, instr.dest);
                // Record the available expression only after the
                // invalidation, or it would erase itself.
                if (hasCseCandidate_)
                    exprs_[cseCandidate_] = instr.dest;
                if (instr.op == IrOp::kConst) {
                    constants_[key(cls, instr.dest)] =
                        wrap32(instr.imm);
                } else if (instr.op == IrOp::kFconst) {
                    fconstants_[key(cls, instr.dest)] = instr.fimm;
                } else if (instr.op == IrOp::kMov ||
                           instr.op == IrOp::kFmov) {
                    // dest is a copy of src1 (and inherits constness).
                    const Key skey = key(cls, instr.src1);
                    copies_[key(cls, instr.dest)] = skey;
                    auto cit = constants_.find(skey);
                    if (cit != constants_.end())
                        constants_[key(cls, instr.dest)] = cit->second;
                    auto fit = fconstants_.find(skey);
                    if (fit != fconstants_.end())
                        fconstants_[key(cls, instr.dest)] = fit->second;
                }
            }
        }
        return changed;
    }

    /** Fold an instr whose integer operands are known constants. */
    bool
    tryFold(IrInstr &instr)
    {
        const RegClass s1 = ir::src1Class(instr.op);
        const RegClass s2 = ir::src2Class(instr.op);
        if (s1 != RegClass::kInt || s2 != RegClass::kInt)
            return false;
        auto c1 = constants_.find(key(RegClass::kInt, instr.src1));
        auto c2 = constants_.find(key(RegClass::kInt, instr.src2));
        if (c1 == constants_.end() || c2 == constants_.end())
            return false;
        auto folded = foldInt(instr.op, c1->second, c2->second);
        if (!folded)
            return false;
        IrInstr konst;
        konst.op = IrOp::kConst;
        konst.imm = *folded;
        konst.dest = instr.dest;
        instr = std::move(konst);
        return true;
    }

    IrFunction &fn_;

    using ExprKey = std::tuple<int, Vreg, Vreg, std::int64_t>;

    std::map<Key, std::int32_t> constants_;
    std::map<Key, double> fconstants_;
    std::map<Key, Key> copies_;
    std::map<ExprKey, Vreg> exprs_;
    ExprKey cseCandidate_{};
    bool hasCseCandidate_ = false;
};

/** Fold `br` on a constant condition into `jmp`. */
bool
foldBranches(IrFunction &fn)
{
    bool changed = false;
    for (auto &blk : fn.blocks) {
        if (blk.instrs.size() < 2)
            continue;
        IrInstr &term = blk.instrs.back();
        if (term.op != IrOp::kBr)
            continue;
        const IrInstr &prev = blk.instrs[blk.instrs.size() - 2];
        if (prev.op == IrOp::kConst && prev.dest == term.src1) {
            const std::uint32_t target =
                prev.imm != 0 ? term.target0 : term.target1;
            term.op = IrOp::kJmp;
            term.src1 = ir::kNoVreg;
            term.target0 = target;
            changed = true;
        } else if (term.target0 == term.target1) {
            term.op = IrOp::kJmp;
            term.src1 = ir::kNoVreg;
            changed = true;
        }
    }
    return changed;
}

/** Redirect edges that land on empty forwarding blocks (jmp-only). */
bool
threadJumps(IrFunction &fn)
{
    // forward[b] = ultimate destination if b is a trivial jmp block.
    std::vector<std::uint32_t> forward(fn.blocks.size());
    for (std::uint32_t b = 0; b < fn.blocks.size(); ++b)
        forward[b] = b;
    for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
        const auto &blk = fn.blocks[b];
        if (blk.instrs.size() == 1 &&
            blk.instrs[0].op == IrOp::kJmp &&
            blk.instrs[0].target0 != b) {
            forward[b] = blk.instrs[0].target0;
        }
    }
    // Collapse chains (bounded by block count).
    for (std::size_t iter = 0; iter < fn.blocks.size(); ++iter) {
        bool moved = false;
        for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
            const std::uint32_t f = forward[forward[b]];
            if (f != forward[b] && f != b) {
                forward[b] = f;
                moved = true;
            }
        }
        if (!moved)
            break;
    }

    bool changed = false;
    for (auto &blk : fn.blocks) {
        IrInstr &term = blk.instrs.back();
        if (term.op == IrOp::kJmp) {
            if (forward[term.target0] != term.target0) {
                term.target0 = forward[term.target0];
                changed = true;
            }
        } else if (term.op == IrOp::kBr) {
            if (forward[term.target0] != term.target0) {
                term.target0 = forward[term.target0];
                changed = true;
            }
            if (forward[term.target1] != term.target1) {
                term.target1 = forward[term.target1];
                changed = true;
            }
        }
    }
    return changed;
}

/**
 * Merge straight-line pairs: a block ending in `jmp S` where S has
 * exactly one predecessor absorbs S. Grows scheduling regions.
 */
bool
mergeStraightLine(IrFunction &fn)
{
    const auto preds = ir::predecessors(fn);
    bool changed = false;
    for (std::uint32_t b = 0; b < fn.blocks.size(); ++b) {
        auto &blk = fn.blocks[b];
        if (blk.instrs.empty())
            continue;
        IrInstr &term = blk.instrs.back();
        if (term.op != IrOp::kJmp)
            continue;
        const std::uint32_t succ = term.target0;
        if (succ == b || succ == 0 || preds[succ].size() != 1)
            continue;
        // Absorb succ's instructions (succ becomes unreachable).
        auto &sblk = fn.blocks[succ];
        if (sblk.instrs.empty())
            continue;  // already absorbed this round
        blk.instrs.pop_back();
        for (auto &instr : sblk.instrs)
            blk.instrs.push_back(std::move(instr));
        sblk.instrs.clear();
        // Leave a self-trap terminator so validate() of intermediate
        // states never sees an empty block; unreachable removal will
        // delete it.
        IrInstr trap;
        trap.op = IrOp::kJmp;
        trap.target0 = succ;
        sblk.instrs.push_back(std::move(trap));
        changed = true;
    }
    if (changed)
        ir::removeUnreachable(fn);
    return changed;
}

/** Global DCE on use counts (handles multi-def vregs naturally). */
bool
deadCodeElim(IrFunction &fn)
{
    // Count uses per (class, vreg).
    auto key = [](RegClass cls, Vreg v) {
        return (std::uint64_t(cls == RegClass::kFloat) << 32) | v;
    };
    std::unordered_map<std::uint64_t, std::uint32_t> uses;
    auto addUse = [&](RegClass cls, Vreg v) {
        if (v != ir::kNoVreg && cls != RegClass::kNone)
            ++uses[key(cls, v)];
    };
    for (const auto &blk : fn.blocks) {
        for (const auto &instr : blk.instrs) {
            addUse(ir::src1Class(instr.op), instr.src1);
            addUse(ir::src2Class(instr.op), instr.src2);
            if (instr.op == IrOp::kCall) {
                for (std::size_t i = 0; i < instr.args.size(); ++i)
                    addUse(instr.argClasses[i], instr.args[i]);
            }
            if (instr.op == IrOp::kRet || instr.op == IrOp::kBr)
                addUse(instr.op == IrOp::kBr ? RegClass::kInt
                                             : instr.valueClass,
                       instr.src1);
        }
    }
    // Parameters are implicitly live (written by the call sequence,
    // may be unused) — nothing to do; we only *remove* dead defs.

    bool changed = false;
    for (auto &blk : fn.blocks) {
        std::vector<IrInstr> kept;
        kept.reserve(blk.instrs.size());
        for (auto &instr : blk.instrs) {
            bool dead = false;
            if (isPure(instr.op) && hasDest(instr)) {
                const RegClass cls = ir::destClass(instr.op);
                if (uses.find(key(cls, instr.dest)) == uses.end())
                    dead = true;
            }
            if (dead)
                changed = true;
            else
                kept.push_back(std::move(instr));
        }
        blk.instrs = std::move(kept);
    }
    return changed;
}

} // namespace

void
optimise(ir::IrModule &module)
{
    for (auto &fn : module.functions) {
        for (int iter = 0; iter < 8; ++iter) {
            bool changed = false;
            LocalPass local(fn);
            changed |= local.run();
            changed |= foldBranches(fn);
            changed |= threadJumps(fn);
            ir::removeUnreachable(fn);
            changed |= mergeStraightLine(fn);
            changed |= deadCodeElim(fn);
            if (!changed)
                break;
        }
    }
    module.validate();
}

} // namespace tepic::compiler
