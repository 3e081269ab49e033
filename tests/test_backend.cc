/**
 * @file
 * Direct back-end tests: LIR structure after lowering, register
 * allocation invariants (reserved registers, physical ranges, call
 * clobber discipline), layout invariants (call adjacency, stubs,
 * block ids), and emulator edge cases on hand-built programs.
 */

#include <gtest/gtest.h>

#include <set>

#include "asmgen/layout.hh"
#include "compiler/driver.hh"
#include "compiler/emit.hh"
#include "compiler/irgen.hh"
#include "compiler/lower.hh"
#include "compiler/opt.hh"
#include "compiler/parser.hh"
#include "compiler/regalloc.hh"
#include "sim/emulator.hh"

namespace {

using namespace tepic;
using compiler::LirProgram;
using compiler::LirTerm;
using compiler::RegConv;

LirProgram
lowerSource(const std::string &source)
{
    auto module = compiler::generateIr(compiler::parse(source));
    compiler::optimise(module);
    return compiler::lower(module);
}

TEST(Lowering, CallsSplitBlocks)
{
    auto lir = lowerSource(R"(
        func f(): int { return 1; }
        func main(): int { var a = f(); var b = f(); return a + b; }
    )");
    const auto &main_fn = lir.functions[lir.mainIndex];
    unsigned calls = 0;
    for (const auto &blk : main_fn.blocks) {
        if (blk.term.kind == LirTerm::kCall) {
            ++calls;
            // Continuation must be a distinct block of this function.
            EXPECT_LT(blk.term.thenTarget, main_fn.blocks.size());
        }
    }
    EXPECT_EQ(calls, 2u);
}

TEST(Lowering, LeafDetection)
{
    auto lir = lowerSource(R"(
        func leaf(x): int { return x + 1; }
        func main(): int { return leaf(41); }
    )");
    for (const auto &fn : lir.functions) {
        if (fn.name == "leaf") {
            EXPECT_TRUE(fn.isLeaf);
        }
        if (fn.name == "main") {
            EXPECT_FALSE(fn.isLeaf);
        }
    }
}

TEST(Lowering, GlobalsGetDistinctAddresses)
{
    auto lir = lowerSource(R"(
        var a[4];
        var b;
        var c[2];
        func main(): int { a[0] = 1; b = 2; c[0] = 3; return b; }
    )");
    std::set<std::uint32_t> addrs(lir.data.globalAddress.begin(),
                                  lir.data.globalAddress.end());
    EXPECT_EQ(addrs.size(), 3u);
    for (auto addr : addrs)
        EXPECT_GE(addr, compiler::kDataBase);
}

TEST(Lowering, FloatConstantsArePooled)
{
    auto lir = lowerSource(R"(
        func main(): int {
            var x: float = 2.5;
            var y: float = 2.5;
            var z: float = 1.25;
            return int(x + y + z);
        }
    )");
    // Pool: two distinct doubles = 16 bytes behind the globals.
    EXPECT_EQ(lir.data.bytes.size(), 16u);
}

TEST(RegAlloc, OnlyArchitecturalRegistersSurvive)
{
    auto lir = lowerSource(R"(
        func mix(a, b, c, d): int { return a * b + c * d; }
        func main(): int {
            var acc = 0;
            for (var i = 0; i < 10; i = i + 1) {
                acc = acc + mix(i, acc, i + 1, acc - i);
            }
            return acc;
        }
    )");
    compiler::allocateRegisters(lir);
    for (const auto &fn : lir.functions) {
        EXPECT_TRUE(fn.allocated);
        for (const auto &blk : fn.blocks) {
            for (const auto &op : blk.body) {
                if (op.dest != ir::kNoVreg &&
                    op.destCls != ir::RegClass::kNone) {
                    EXPECT_LT(op.dest, 32u);
                    // Never the reserved temps' *illegal* targets:
                    // r0 (zero), r30 (SP), r31 (link) are not
                    // allocatable destinations for body computation —
                    // except through pseudo expansions which use r1.
                    if (op.pseudo == compiler::LirPseudo::kNone &&
                        op.destCls == ir::RegClass::kInt) {
                        EXPECT_NE(op.dest, RegConv::kZero);
                        EXPECT_NE(op.dest, unsigned(isa::kRegSp));
                        EXPECT_NE(op.dest, unsigned(isa::kRegLink));
                    }
                }
            }
        }
    }
}

TEST(RegAlloc, CallCrossingValuesAvoidCallerSaved)
{
    // `keep` stays live across the call: it must not sit in r3..r15
    // (caller-saved) at the call boundary. We verify behaviourally:
    // the callee clobbers every caller-saved register in the
    // emulator... which it does by construction; so compile+run and
    // check the result (the real guarantee), plus spill accounting.
    const char *src = R"(
        func noisy(x): int { return x * 7 + 3; }
        func main(): int {
            var keep = 12345;
            var r = noisy(7);
            return keep + r;
        }
    )";
    auto compiled = compiler::compileSource(src);
    auto result = sim::emulate(compiled.program, compiled.data);
    EXPECT_EQ(result.exitValue, 12345 + 7 * 7 + 3);
}

TEST(RegAlloc, SpillStatisticsReported)
{
    // Force far more simultaneously-live values than registers; the
    // initialisers read a global so the optimiser cannot fold the
    // whole program away.
    std::string src = "var seed = 3;\nfunc main(): int {\n";
    for (int i = 0; i < 40; ++i)
        src += "    var v" + std::to_string(i) + " = seed * " +
               std::to_string(i + 1) + ";\n";
    src += "    var s = 0;\n";
    for (int i = 0; i < 40; ++i)
        src += "    s = s + v" + std::to_string(i) + " * v" +
               std::to_string((i + 7) % 40) + ";\n";
    src += "    return s;\n}\n";
    auto lir = lowerSource(src);
    const auto stats = compiler::allocateRegisters(lir);
    EXPECT_GT(stats.spills, 0u);
    EXPECT_GT(stats.intervals, 40u);
}

TEST(Layout, CallContinuationIsAdjacent)
{
    auto lir = lowerSource(R"(
        func f(x): int { if (x > 0) { return x; } return 0 - x; }
        func main(): int {
            var s = 0;
            for (var i = 0; i < 4; i = i + 1) { s = s + f(s - 2); }
            return s;
        }
    )");
    compiler::allocateRegisters(lir);
    auto emitted = compiler::emit(lir);
    auto laid = asmgen::layoutProgram(emitted);
    for (std::size_t b = 0; b < laid.blocks.size(); ++b) {
        const auto &blk = laid.blocks[b];
        if (blk.ops.empty() || !blk.ops.back().isBranch())
            continue;
        if (blk.ops.back().opcode() == isa::Opcode::kCall) {
            EXPECT_EQ(blk.fallthrough, isa::BlockId(b + 1));
        }
    }
    EXPECT_EQ(laid.entry, 0u);
    EXPECT_EQ(laid.blockSource.size(), laid.blocks.size());
}

TEST(Layout, EveryBlockEndsResolvably)
{
    auto lir = lowerSource(R"(
        func main(): int {
            var x = 3;
            if (x > 1) { x = x * 2; } else { x = x + 10; }
            while (x < 100) { x = x * 3; }
            return x;
        }
    )");
    compiler::allocateRegisters(lir);
    auto laid = asmgen::layoutProgram(compiler::emit(lir));
    for (std::size_t b = 0; b < laid.blocks.size(); ++b) {
        const auto &blk = laid.blocks[b];
        ASSERT_FALSE(blk.ops.empty());
        const bool has_branch = blk.ops.back().isBranch();
        if (!has_branch) {
            // Pure fallthrough must point at the next block.
            EXPECT_EQ(blk.fallthrough, isa::BlockId(b + 1));
        }
        // Branch targets are in range.
        if (blk.branchTarget != isa::kNoBlock) {
            EXPECT_LT(blk.branchTarget, laid.blocks.size());
        }
    }
}

// ---- emulator edge cases on hand-built programs ----

namespace {

isa::Operation
makeOp(isa::OpType type, isa::Opcode opcode)
{
    return isa::Operation::make(type, opcode);
}

/** Single-block program executing @p ops then returning via link. */
isa::VliwProgram
singleBlock(std::vector<isa::Operation> ops)
{
    isa::VliwProgram prog;
    auto &blk = prog.addBlock();
    for (auto &op : ops) {
        isa::Mop mop;
        mop.append(op);
        blk.mops.push_back(mop);
    }
    isa::Mop ret_mop;
    isa::Operation ret = makeOp(isa::OpType::kBranch,
                                isa::Opcode::kRet);
    ret.setSrc1(isa::kRegLink);
    ret_mop.append(ret);
    blk.mops.push_back(ret_mop);
    return prog;
}

std::int32_t
exitOf(const isa::VliwProgram &prog)
{
    compiler::DataSegment data;
    data.base = 0x1000;
    return sim::emulate(prog, data).exitValue;
}

std::int32_t
runSingle(std::vector<isa::Operation> ops)
{
    return exitOf(singleBlock(std::move(ops)));
}

isa::Mop
mopOf(std::initializer_list<isa::Operation> ops)
{
    isa::Mop mop;
    for (const auto &op : ops)
        mop.append(op);
    return mop;
}

/** An OpType::kInt op (IntAlu or IntCmpp): dest <- src1 op src2. */
isa::Operation
intOp(isa::Opcode opcode, unsigned dest, unsigned src1, unsigned src2 = 0,
      unsigned pred = isa::kPredTrue)
{
    isa::Operation op = makeOp(isa::OpType::kInt, opcode);
    op.setDest(dest);
    op.setSrc1(src1);
    op.setSrc2(src2);
    op.setPred(pred);
    return op;
}

isa::Operation
ldi(unsigned dest, std::uint32_t imm, unsigned pred = isa::kPredTrue)
{
    isa::Operation op = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    op.setDest(dest);
    op.setImm(imm);
    op.setPred(pred);
    return op;
}

isa::Operation
fpOp(isa::Opcode opcode, unsigned dest, unsigned src1)
{
    isa::Operation op = makeOp(isa::OpType::kFloat, opcode);
    op.setDest(dest);
    op.setSrc1(src1);
    return op;
}

isa::Operation
branchOp(isa::Opcode opcode, isa::BlockId target,
         unsigned pred = isa::kPredTrue)
{
    isa::Operation op = makeOp(isa::OpType::kBranch, opcode);
    op.setTarget(target);
    op.setPred(pred);
    return op;
}

/** `ret` through the link register. */
isa::Operation
retOp()
{
    isa::Operation op = branchOp(isa::Opcode::kRet, 0);
    op.setSrc1(isa::kRegLink);
    return op;
}

/**
 * Append MOPs that leave r3 = the registers as decimal digits
 * ({r4, r5} -> r4*10 + r5; r28/r29 are scratch), then return.
 */
void
packDigitsAndReturn(isa::VliwBlock &blk,
                    std::initializer_list<unsigned> regs)
{
    blk.mops.push_back(mopOf({ldi(29, 10), ldi(28, 0)}));
    for (unsigned r : regs) {
        blk.mops.push_back(mopOf({intOp(isa::Opcode::kMul, 28, 28, 29)}));
        blk.mops.push_back(mopOf({intOp(isa::Opcode::kAdd, 28, 28, r)}));
    }
    blk.mops.push_back(mopOf({intOp(isa::Opcode::kMov, 3, 28)}));
    blk.mops.push_back(mopOf({retOp()}));
}

} // namespace

// ---- the packed block trace ----

TEST(BlockTrace, PushReadsBackEveryField)
{
    sim::BlockTrace trace;
    trace.push(3, false);
    trace.push(4, true);
    trace.push(9, true);
    const sim::TraceView view = trace.view();
    ASSERT_EQ(view.size(), 3u);
    ASSERT_EQ(trace.events.size(), 3u);
    EXPECT_EQ(view.block(0), 3u);
    EXPECT_FALSE(view.taken(0));
    EXPECT_EQ(view.next(0), 4u);
    EXPECT_EQ(view.block(1), 4u);
    EXPECT_TRUE(view.taken(1));
    EXPECT_EQ(view.next(1), 9u);
    EXPECT_EQ(trace.event(0), (sim::TraceEvent{3, 4, false}));
    EXPECT_EQ(trace.event(1), (sim::TraceEvent{4, 9, true}));
    EXPECT_EQ(view.event(1), trace.event(1));
}

TEST(BlockTrace, LastSuccessorIsTheHaltId)
{
    sim::BlockTrace trace;
    trace.push(7, true);
    EXPECT_EQ(trace.view().next(0), compiler::kHaltBlockId);
    EXPECT_EQ(trace.event(0),
              (sim::TraceEvent{7, compiler::kHaltBlockId, true}));
}

TEST(BlockTrace, TakenBitKeptAtTheLargestId)
{
    constexpr isa::BlockId kLargest =
        isa::BlockId(sim::TraceView::kMaxBlocks - 1);
    sim::BlockTrace trace;
    trace.push(kLargest, true);
    trace.push(kLargest, false);
    trace.push(0, true);
    const sim::TraceView view = trace.view();
    EXPECT_EQ(view.block(0), kLargest);
    EXPECT_TRUE(view.taken(0));
    EXPECT_EQ(view.next(0), kLargest);
    EXPECT_EQ(view.block(1), kLargest);
    EXPECT_FALSE(view.taken(1));
    EXPECT_EQ(view.next(1), 0u);
    EXPECT_EQ(view.block(2), 0u);
    EXPECT_TRUE(view.taken(2));
}

TEST(BlockTrace, EqualityComparesBlocksAndTakenFlags)
{
    sim::BlockTrace a, b;
    EXPECT_EQ(a, b);
    a.push(1, true);
    b.push(1, true);
    EXPECT_EQ(a, b);
    sim::BlockTrace other_flag, other_block, longer = a;
    other_flag.push(1, false);
    other_block.push(2, true);
    longer.push(2, false);
    EXPECT_NE(a, other_flag);
    EXPECT_NE(a, other_block);
    EXPECT_NE(a, longer);
}

TEST(BlockTrace, PrefixEndsInHalt)
{
    sim::BlockTrace trace;
    for (isa::BlockId b : {0u, 1u, 2u, 1u, 2u, 5u})
        trace.push(b, b == 2);
    const sim::BlockTrace prefix{
        {trace.events.begin(), trace.events.begin() + 3}};
    ASSERT_EQ(prefix.events.size(), 3u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(prefix.event(i), trace.event(i)) << "event " << i;
    EXPECT_EQ(trace.event(2), (sim::TraceEvent{2, 1, true}));
    EXPECT_EQ(prefix.event(2),
              (sim::TraceEvent{2, compiler::kHaltBlockId, true}));
}

TEST(Emulator, PredicatedOpsMerge)
{
    // p1 = (0 != 0) = false; r3 = 7; r3 = 9 if p1 -> stays 7.
    isa::Operation cmp = makeOp(isa::OpType::kInt,
                                isa::Opcode::kCmppNe);
    cmp.setDest(1);
    cmp.setSrc1(0);
    cmp.setSrc2(0);
    isa::Operation set7 = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    set7.setDest(3);
    set7.setImm(7);
    isa::Operation set9 = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    set9.setDest(3);
    set9.setImm(9);
    set9.setPred(1);
    EXPECT_EQ(runSingle({cmp, set7, set9}), 7);
}

TEST(Emulator, VliwReadsHappenBeforeWrites)
{
    // One MOP: r3 <- r4, r4 <- r3 (a swap): both read pre-MOP values.
    isa::VliwProgram prog;
    auto &blk = prog.addBlock();
    isa::Mop init;
    isa::Operation a = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    a.setDest(3);
    a.setImm(5);
    init.append(a);
    isa::Operation b = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    b.setDest(4);
    b.setImm(11);
    init.append(b);
    blk.mops.push_back(init);

    isa::Mop swap;
    isa::Operation m1 = makeOp(isa::OpType::kInt, isa::Opcode::kMov);
    m1.setDest(3);
    m1.setSrc1(4);
    swap.append(m1);
    isa::Operation m2 = makeOp(isa::OpType::kInt, isa::Opcode::kMov);
    m2.setDest(4);
    m2.setSrc1(3);
    swap.append(m2);
    blk.mops.push_back(swap);

    // r3 = r3*32 + r4 = 11*32 + 5.
    isa::Mop pack;
    isa::Operation sh = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    sh.setDest(5);
    sh.setImm(5);
    pack.append(sh);
    blk.mops.push_back(pack);
    isa::Mop pack2;
    isa::Operation shl = makeOp(isa::OpType::kInt, isa::Opcode::kShl);
    shl.setDest(3);
    shl.setSrc1(3);
    shl.setSrc2(5);
    pack2.append(shl);
    blk.mops.push_back(pack2);
    isa::Mop pack3;
    isa::Operation add = makeOp(isa::OpType::kInt, isa::Opcode::kAdd);
    add.setDest(3);
    add.setSrc1(3);
    add.setSrc2(4);
    pack3.append(add);
    blk.mops.push_back(pack3);

    isa::Mop ret_mop;
    isa::Operation ret = makeOp(isa::OpType::kBranch,
                                isa::Opcode::kRet);
    ret.setSrc1(isa::kRegLink);
    ret_mop.append(ret);
    blk.mops.push_back(ret_mop);

    compiler::DataSegment data;
    data.base = 0x1000;
    EXPECT_EQ(sim::emulate(prog, data).exitValue, 11 * 32 + 5);
}

// ---- read-at-issue inside one MOP: each case is hand-traced ----

using isa::Opcode;

TEST(Emulator, GuardReadsPreMopPredicate)
{
    isa::VliwProgram prog;
    auto &blk = prog.addBlock();
    blk.mops.push_back(mopOf({ldi(4, 5), ldi(5, 1)}));
    // p1 goes false -> true; the op it guards still sees false.
    blk.mops.push_back(mopOf({intOp(Opcode::kCmppEq, 1, 0, 0),
                              intOp(Opcode::kAdd, 4, 4, 5, 1)}));
    // p2 goes true -> false; the op it guards still sees true (r5 = 2).
    blk.mops.push_back(mopOf({intOp(Opcode::kCmppEq, 2, 0, 0)}));
    blk.mops.push_back(mopOf({intOp(Opcode::kCmppNe, 2, 0, 0),
                              intOp(Opcode::kAdd, 5, 5, 5, 2)}));
    // After the MOPs: p1 true (r6 = 2), p2 false (r7 stays 0).
    blk.mops.push_back(mopOf({intOp(Opcode::kAdd, 6, 0, 5, 1),
                              intOp(Opcode::kAdd, 7, 0, 5, 2)}));
    packDigitsAndReturn(blk, {4, 5, 6, 7});
    EXPECT_EQ(exitOf(prog), 5220);
}

TEST(Emulator, BrcfReadsPreMopPredicate)
{
    // Block 0 flips p1 in the MOP holding `brcf p1`: the branch tests
    // the old value. Taken -> block 2 (r3 = 20), else block 1 (10).
    const auto program = [](bool p1_before) {
        isa::VliwProgram prog;
        auto &b0 = prog.addBlock();
        const Opcode set = p1_before ? Opcode::kCmppEq : Opcode::kCmppNe;
        const Opcode flip = p1_before ? Opcode::kCmppNe : Opcode::kCmppEq;
        b0.mops.push_back(mopOf({intOp(set, 1, 0, 0)}));
        b0.mops.push_back(mopOf({intOp(flip, 1, 0, 0),
                                 branchOp(Opcode::kBrcf, 2, 1)}));
        b0.fallthrough = 1;
        b0.branchTarget = 2;
        for (std::uint32_t value : {10u, 20u}) {
            auto &blk = prog.addBlock();
            blk.mops.push_back(mopOf({ldi(4, value)}));
            packDigitsAndReturn(blk, {4});
        }
        return prog;
    };
    EXPECT_EQ(exitOf(program(false)), 20);
    EXPECT_EQ(exitOf(program(true)), 10);
}

TEST(Emulator, LastWriteWinsInRenamedMop)
{
    isa::VliwProgram prog;
    auto &blk = prog.addBlock();
    blk.mops.push_back(mopOf({ldi(4, 5), ldi(6, 4), ldi(9, 1)}));
    // r4: a true write, then a false-guarded one, then a read of r4.
    blk.mops.push_back(mopOf({ldi(4, 7), ldi(4, 9, 1),
                              intOp(Opcode::kMov, 5, 4)}));
    // r6: only a false-guarded write, then a read: r6 keeps 4.
    blk.mops.push_back(mopOf({ldi(6, 8, 1), intOp(Opcode::kMov, 7, 6)}));
    // r8: two writes, no read; r9: write, read, write.
    blk.mops.push_back(mopOf({ldi(8, 1), ldi(8, 2), ldi(9, 3),
                              intOp(Opcode::kMov, 10, 9), ldi(9, 6)}));
    packDigitsAndReturn(blk, {4, 5, 6, 7, 8, 9, 10});
    EXPECT_EQ(exitOf(prog), 7544261);
}

TEST(Emulator, FprSwapInOneMop)
{
    // f0 is an ordinary register: its shadow shares slot 32 with the
    // r0/p0 sink of the other files.
    isa::VliwProgram prog;
    auto &blk = prog.addBlock();
    blk.mops.push_back(mopOf({ldi(4, 3), ldi(5, 4)}));
    blk.mops.push_back(mopOf({fpOp(Opcode::kItof, 0, 4),
                              fpOp(Opcode::kItof, 1, 5)}));
    blk.mops.push_back(mopOf({fpOp(Opcode::kFmov, 0, 1),
                              fpOp(Opcode::kFmov, 1, 0)}));
    blk.mops.push_back(mopOf({fpOp(Opcode::kFtoi, 6, 0),
                              fpOp(Opcode::kFtoi, 7, 1)}));
    packDigitsAndReturn(blk, {6, 7});
    EXPECT_EQ(exitOf(prog), 43);
}

TEST(Emulator, BrlcCounterReadInItsMop)
{
    // r4 = 3; loop: { brlc r4 -> loop; r3 += r4 } adds the counter's
    // pre-MOP value each pass: 3 + 2 + 1.
    isa::VliwProgram prog;
    auto &b0 = prog.addBlock();
    b0.mops.push_back(mopOf({ldi(4, 3)}));
    b0.fallthrough = 1;
    auto &b1 = prog.addBlock();
    isa::Operation brlc = branchOp(Opcode::kBrlc, 1);
    brlc.setField(isa::FieldKind::kCounter, 4);
    b1.mops.push_back(mopOf({brlc, intOp(Opcode::kAdd, 3, 3, 4)}));
    b1.fallthrough = 2;
    b1.branchTarget = 1;
    auto &b2 = prog.addBlock();
    packDigitsAndReturn(b2, {3});
    EXPECT_EQ(exitOf(prog), 6);
}

TEST(Emulator, CallLinkReadInItsMop)
{
    // { call 2; r5 <- r31 } reads the old link (the halt id 65535);
    // block 2 sees the new one, block 0's fallthrough (1), in r6.
    isa::VliwProgram prog;
    auto &b0 = prog.addBlock();
    b0.mops.push_back(mopOf({branchOp(Opcode::kCall, 2),
                             intOp(Opcode::kMov, 5, isa::kRegLink)}));
    b0.fallthrough = 1;
    b0.branchTarget = 2;
    auto &b1 = prog.addBlock();
    b1.mops.push_back(mopOf({intOp(Opcode::kMov, isa::kRegLink, 5)}));
    packDigitsAndReturn(b1, {5, 6});
    auto &b2 = prog.addBlock();
    b2.mops.push_back(mopOf({intOp(Opcode::kMov, 6, isa::kRegLink)}));
    b2.mops.push_back(mopOf({retOp()}));
    ASSERT_EQ(compiler::kHaltBlockId, 65535u);
    EXPECT_EQ(exitOf(prog), 655351);
}

TEST(Emulator, R0AndP0WritesInRenamedMop)
{
    // r4 is renamed (written, then read); the r0/p0 writes in the same
    // MOP are dropped, and reads of r0/p0 after them see 0 / true.
    isa::VliwProgram prog;
    auto &blk = prog.addBlock();
    blk.mops.push_back(mopOf({ldi(4, 3)}));
    blk.mops.push_back(mopOf({ldi(0, 99), ldi(4, 7),
                              intOp(Opcode::kAdd, 5, 0, 4),
                              intOp(Opcode::kCmppNe, 0, 0, 0),
                              intOp(Opcode::kMov, 6, 4, 0, 0)}));
    blk.mops.push_back(mopOf({intOp(Opcode::kAdd, 7, 0, 0, 0),
                              ldi(8, 1, 0)}));
    packDigitsAndReturn(blk, {5, 4, 6, 7, 8});
    EXPECT_EQ(exitOf(prog), 37301);
}

TEST(Emulator, WritesToR0AndP0Ignored)
{
    isa::Operation clobber = makeOp(isa::OpType::kInt,
                                    isa::Opcode::kLdi);
    clobber.setDest(0);
    clobber.setImm(99);
    isa::Operation use = makeOp(isa::OpType::kInt, isa::Opcode::kAdd);
    use.setDest(3);
    use.setSrc1(0);
    use.setSrc2(0);
    EXPECT_EQ(runSingle({clobber, use}), 0);
}

TEST(Emulator, BrlcLoopCounter)
{
    // r4 = 3; loop: r3 += 1; brlc r4 -> loop. Runs 3 times.
    isa::VliwProgram prog;
    auto &b0 = prog.addBlock();
    isa::Mop init;
    isa::Operation cnt = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    cnt.setDest(4);
    cnt.setImm(3);
    init.append(cnt);
    b0.mops.push_back(init);
    b0.fallthrough = 1;

    auto &b1 = prog.addBlock();
    isa::Mop body;
    isa::Operation one = makeOp(isa::OpType::kInt, isa::Opcode::kLdi);
    one.setDest(5);
    one.setImm(1);
    body.append(one);
    b1.mops.push_back(body);
    isa::Mop bump;
    isa::Operation add = makeOp(isa::OpType::kInt, isa::Opcode::kAdd);
    add.setDest(3);
    add.setSrc1(3);
    add.setSrc2(5);
    bump.append(add);
    b1.mops.push_back(bump);
    isa::Mop loop;
    isa::Operation brlc = makeOp(isa::OpType::kBranch,
                                 isa::Opcode::kBrlc);
    brlc.setField(isa::FieldKind::kCounter, 4);
    brlc.setTarget(1);
    loop.append(brlc);
    b1.mops.push_back(loop);
    b1.fallthrough = 2;
    b1.branchTarget = 1;

    auto &b2 = prog.addBlock();
    isa::Mop fin;
    isa::Operation ret = makeOp(isa::OpType::kBranch,
                                isa::Opcode::kRet);
    ret.setSrc1(isa::kRegLink);
    fin.append(ret);
    b2.mops.push_back(fin);

    compiler::DataSegment data;
    data.base = 0x1000;
    EXPECT_EQ(sim::emulate(prog, data).exitValue, 3);

    // MOP budget boundary: 1 + 3 passes x 3 MOPs + 1 = 11 MOPs pass a
    // budget of exactly 11. Limit 10 falls on the last block's
    // boundary; 5 and 2 fall mid-block (second and first pass).
    sim::EmulatorConfig config;
    config.maxMops = 11;
    const auto result = sim::emulate(prog, data, config);
    EXPECT_EQ(result.exitValue, 3);
    EXPECT_EQ(result.dynamicMops, 11u);
    EXPECT_EQ(result.dynamicOps, 11u);
    for (std::uint64_t limit : {10u, 5u, 2u, 0u}) {
        config.maxMops = limit;
        EXPECT_THROW(sim::emulate(prog, data, config), std::runtime_error)
            << "maxMops = " << limit;
    }
}

/** The panic message of running @p prog; empty when it runs clean. */
std::string
panicOf(const isa::VliwProgram &prog)
{
    try {
        exitOf(prog);
    } catch (const std::logic_error &e) {
        return e.what();
    }
    return {};
}

/** Whether @p message (a panic, or "" for a clean run) names @p fault. */
::testing::AssertionResult
names(const std::string &message, const std::string &fault)
{
    if (message.find(fault) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "expected a panic naming \"" << fault << "\", got \""
        << message << "\"";
}

isa::Operation
memOp(Opcode opcode, unsigned dest, unsigned addr, unsigned value = 0,
      unsigned pred = isa::kPredTrue)
{
    isa::Operation op = makeOp(isa::OpType::kMemory, opcode);
    op.setDest(dest);
    op.setSrc1(addr);
    op.setSrc2(value);
    op.setPred(pred);
    return op;
}

TEST(Emulator, FaultsAreFatal)
{
    const auto fault = [](std::vector<isa::Operation> ops) {
        return panicOf(singleBlock(std::move(ops)));
    };
    // r4 = INT32_MIN, r5 = -1 (ldi sign-extends its 20-bit field).
    const auto min_by_minus_one = [](Opcode opcode) {
        return std::vector<isa::Operation>{
            ldi(4, 1), ldi(5, 31), intOp(Opcode::kShl, 4, 4, 5),
            ldi(5, 0xfffff), intOp(opcode, 3, 4, 5)};
    };
    EXPECT_TRUE(names(fault({ldi(4, 7), intOp(Opcode::kDiv, 3, 4, 0)}),
                      "division by zero"));
    EXPECT_TRUE(names(fault({ldi(4, 7), intOp(Opcode::kRem, 3, 4, 0)}),
                      "remainder by zero"));
    EXPECT_TRUE(names(fault(min_by_minus_one(Opcode::kDiv)),
                      "integer overflow in division"));
    EXPECT_TRUE(names(fault(min_by_minus_one(Opcode::kRem)),
                      "integer overflow in remainder"));
    EXPECT_TRUE(names(fault({ldi(4, 0x1002),
                             memOp(Opcode::kLoad, 3, 4)}),
                      "misaligned access at 4098"));
    EXPECT_TRUE(names(fault({ldi(4, 0x1004),
                             memOp(Opcode::kFstore, 0, 4, 1)}),
                      "misaligned access at 4100"));
    // 1 << 19 is the first byte past the default 512 KiB memory.
    EXPECT_TRUE(names(fault({ldi(4, 1), ldi(5, 19),
                             intOp(Opcode::kShl, 4, 4, 5),
                             memOp(Opcode::kStore, 0, 4, 0)}),
                      "memory access out of bounds at 524288"));
    // The closing `ret` jumps through a link register holding -1.
    EXPECT_TRUE(names(fault({ldi(isa::kRegLink, 0xfffff)}),
                      "bad return address -1"));

    // Controls: the same ops with benign operands, or with a false
    // guard, run clean.
    EXPECT_EQ(fault({ldi(4, 7), ldi(5, 2), intOp(Opcode::kDiv, 3, 4, 5),
                     intOp(Opcode::kRem, 3, 4, 5)}),
              "");
    EXPECT_EQ(fault({ldi(4, 0x1002), intOp(Opcode::kDiv, 3, 4, 0, 1),
                     memOp(Opcode::kLoad, 3, 4, 0, 1)}),
              "");
    EXPECT_EQ(fault({ldi(4, 0x1008), memOp(Opcode::kFstore, 0, 4, 1),
                     memOp(Opcode::kStore, 0, 4, 0)}),
              "");
}

TEST(Emulator, ControlFaultsAreFatal)
{
    {
        isa::VliwProgram prog;
        prog.addBlock().mops.push_back(mopOf({branchOp(Opcode::kBr, 7)}));
        EXPECT_TRUE(
            names(panicOf(prog), "control transfer to bad block 7"));
    }
    {
        // Block 0 runs off its end: no branch was taken and it has no
        // fallthrough.
        isa::VliwProgram prog;
        prog.addBlock().mops.push_back(mopOf({ldi(3, 1)}));
        EXPECT_TRUE(names(panicOf(prog), "fell off block 0"));
    }
}

TEST(Emulator, RunawayGuardTrips)
{
    // An infinite self-loop must hit the MOP budget, not hang.
    isa::VliwProgram prog;
    auto &blk = prog.addBlock();
    isa::Mop loop;
    isa::Operation br = makeOp(isa::OpType::kBranch, isa::Opcode::kBr);
    br.setTarget(0);
    loop.append(br);
    blk.mops.push_back(loop);
    blk.branchTarget = 0;
    compiler::DataSegment data;
    data.base = 0x1000;
    sim::EmulatorConfig config;
    config.maxMops = 1000;
    config.recordTrace = false;
    EXPECT_ANY_THROW(sim::emulate(prog, data, config));
}

TEST(Emulator, BadOperationFailsAtPreDecode)
{
    // Block 1 never runs; pre-decoding it must still reject the op.
    const auto check = [](const isa::Operation &bad) {
        isa::VliwProgram prog;
        prog.addBlock().mops.push_back(mopOf({retOp()}));
        prog.addBlock().mops.push_back(mopOf({bad}));
        compiler::DataSegment data;
        data.base = 0x1000;
        EXPECT_THROW(sim::emulate(prog, data), std::logic_error)
            << bad.toString();
    };
    check(makeOp(isa::OpType::kFloat, static_cast<Opcode>(7)));
    check(makeOp(isa::OpType::kBranch, static_cast<Opcode>(6)));
    check(makeOp(isa::OpType::kInt, static_cast<Opcode>(13)));
    check(makeOp(isa::OpType::kMemory, static_cast<Opcode>(4)));
    // A register field past the 32-entry files.
    check(intOp(Opcode::kAdd, 3, 40, 1));
    check(ldi(3, 1, 32));
}

} // namespace
