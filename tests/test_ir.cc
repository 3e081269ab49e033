/**
 * @file
 * IR and CFG-analysis tests: successor/terminator rules, reverse
 * postorder, loop-depth detection, weight estimation, unreachable
 * removal, and module validation.
 */

#include <gtest/gtest.h>

#include "ir/analysis.hh"
#include "ir/ir.hh"

namespace {

using namespace tepic::ir;

IrInstr
jmp(std::uint32_t target)
{
    IrInstr instr;
    instr.op = IrOp::kJmp;
    instr.target0 = target;
    return instr;
}

IrInstr
br(Vreg cond, std::uint32_t then_b, std::uint32_t else_b)
{
    IrInstr instr;
    instr.op = IrOp::kBr;
    instr.src1 = cond;
    instr.target0 = then_b;
    instr.target1 = else_b;
    return instr;
}

IrInstr
ret()
{
    IrInstr instr;
    instr.op = IrOp::kRet;
    return instr;
}

IrInstr
konst(Vreg dest, std::int64_t value)
{
    IrInstr instr;
    instr.op = IrOp::kConst;
    instr.dest = dest;
    instr.imm = value;
    return instr;
}

/** Diamond: 0 -> {1, 2} -> 3(ret), with a self-loop on 2. */
IrFunction
diamondWithLoop()
{
    IrFunction fn;
    fn.name = "diamond";
    fn.blocks.resize(4);
    fn.numIntVregs = 2;
    fn.blocks[0].instrs.push_back(konst(0, 1));
    fn.blocks[0].instrs.push_back(br(0, 1, 2));
    fn.blocks[1].instrs.push_back(jmp(3));
    fn.blocks[2].instrs.push_back(konst(1, 0));
    fn.blocks[2].instrs.push_back(br(1, 2, 3));  // loop on itself
    fn.blocks[3].instrs.push_back(ret());
    return fn;
}

TEST(IrBasics, SuccessorsFollowTerminators)
{
    const IrFunction fn = diamondWithLoop();
    EXPECT_EQ(fn.blocks[0].successors(),
              (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(fn.blocks[1].successors(),
              (std::vector<std::uint32_t>{3}));
    EXPECT_TRUE(fn.blocks[3].successors().empty());
}

TEST(IrBasics, OperandClasses)
{
    EXPECT_EQ(destClass(IrOp::kAdd), RegClass::kInt);
    EXPECT_EQ(destClass(IrOp::kFadd), RegClass::kFloat);
    EXPECT_EQ(destClass(IrOp::kFtoi), RegClass::kInt);
    EXPECT_EQ(destClass(IrOp::kItof), RegClass::kFloat);
    EXPECT_EQ(destClass(IrOp::kStore), RegClass::kNone);
    EXPECT_EQ(src1Class(IrOp::kFtoi), RegClass::kFloat);
    EXPECT_EQ(src2Class(IrOp::kFstore), RegClass::kFloat);
    EXPECT_EQ(src1Class(IrOp::kBr), RegClass::kInt);
    // Float compares read floats but produce ints.
    EXPECT_EQ(destClass(IrOp::kFcmpLt), RegClass::kInt);
    EXPECT_EQ(src1Class(IrOp::kFcmpLt), RegClass::kFloat);
}

TEST(Analysis, ReversePostorderStartsAtEntry)
{
    const IrFunction fn = diamondWithLoop();
    const auto rpo = reversePostorder(fn);
    ASSERT_FALSE(rpo.empty());
    EXPECT_EQ(rpo.front(), 0u);
    // Every reachable block appears exactly once.
    EXPECT_EQ(rpo.size(), 4u);
}

TEST(Analysis, Predecessors)
{
    const IrFunction fn = diamondWithLoop();
    const auto preds = predecessors(fn);
    EXPECT_EQ(preds[0].size(), 0u);
    EXPECT_EQ(preds[3].size(), 2u);
    // Block 2 has the entry and itself.
    EXPECT_EQ(preds[2].size(), 2u);
}

TEST(Analysis, LoopDepths)
{
    const IrFunction fn = diamondWithLoop();
    const auto depths = loopDepths(fn);
    EXPECT_EQ(depths[0], 0u);
    EXPECT_EQ(depths[1], 0u);
    EXPECT_EQ(depths[2], 1u);  // self loop
    EXPECT_EQ(depths[3], 0u);
}

TEST(Analysis, NestedLoopDepths)
{
    // 0 -> 1 -> 2 -> 1 ... 1 -> 0? Build: 0(head outer) -> 1(head
    // inner) -> 1 (self), 1 -> 0 back edge, 0 -> 2 exit.
    IrFunction fn;
    fn.blocks.resize(3);
    fn.numIntVregs = 1;
    fn.blocks[0].instrs.push_back(konst(0, 1));
    fn.blocks[0].instrs.push_back(br(0, 1, 2));
    fn.blocks[1].instrs.push_back(br(0, 1, 0));
    fn.blocks[2].instrs.push_back(ret());
    const auto depths = loopDepths(fn);
    EXPECT_EQ(depths[0], 1u);
    EXPECT_EQ(depths[1], 2u);  // inner self loop + outer loop
    EXPECT_EQ(depths[2], 0u);
}

TEST(Analysis, EstimateWeightsScaleWithDepth)
{
    IrFunction fn = diamondWithLoop();
    estimateWeights(fn);
    EXPECT_DOUBLE_EQ(fn.blocks[0].weight, 1.0);
    EXPECT_DOUBLE_EQ(fn.blocks[2].weight, 10.0);
}

TEST(Analysis, ApplyProfileOverridesWeights)
{
    IrFunction fn = diamondWithLoop();
    applyProfile(fn, {5, 6, 7, 8});
    EXPECT_DOUBLE_EQ(fn.blocks[2].weight, 7.0);
    EXPECT_ANY_THROW(applyProfile(fn, {1, 2}));
}

TEST(Analysis, RemoveUnreachableRemapsTargets)
{
    IrFunction fn;
    fn.blocks.resize(4);
    fn.numIntVregs = 1;
    // 0 -> 2 -> 3; block 1 unreachable.
    fn.blocks[0].instrs.push_back(jmp(2));
    fn.blocks[1].instrs.push_back(jmp(3));
    fn.blocks[2].instrs.push_back(jmp(3));
    fn.blocks[3].instrs.push_back(ret());
    removeUnreachable(fn);
    ASSERT_EQ(fn.blocks.size(), 3u);
    EXPECT_EQ(fn.blocks[0].instrs.back().target0, 1u);  // remapped
    EXPECT_EQ(fn.blocks[1].instrs.back().target0, 2u);
}

TEST(Module, ValidateCatchesMissingTerminator)
{
    IrModule module;
    IrFunction fn;
    fn.name = "bad";
    fn.blocks.resize(1);
    fn.blocks[0].instrs.push_back(konst(0, 1));  // no terminator
    module.functions.push_back(std::move(fn));
    EXPECT_ANY_THROW(module.validate());
}

TEST(Module, ValidateCatchesBadSuccessor)
{
    IrModule module;
    IrFunction fn;
    fn.name = "bad";
    fn.blocks.resize(1);
    fn.blocks[0].instrs.push_back(jmp(7));  // out of range
    module.functions.push_back(std::move(fn));
    EXPECT_ANY_THROW(module.validate());
}

TEST(Module, FindFunction)
{
    IrModule module;
    IrFunction fn;
    fn.name = "alpha";
    fn.blocks.resize(1);
    fn.blocks[0].instrs.push_back(ret());
    module.functions.push_back(std::move(fn));
    EXPECT_EQ(module.findFunction("alpha"), 0);
    EXPECT_EQ(module.findFunction("beta"), -1);
}

} // namespace
