/**
 * @file
 * The relaid-out program's execution is derived, not emulated
 * (sim::deriveExecution). These tests hold the derivation to the real
 * second emulation, sim::emulate, which stays the oracle:
 *
 *  - every workload built through the engine at -O2 and -O0, field by
 *    field and event by event;
 *  - hand-built programs for the paths no workload reaches: a jump stub
 *    that runs in only one of the two layouts, and a conditional whose
 *    two sides are one block (then == else), taken both ways;
 *  - the MOP budget, which the engine must trip exactly when the
 *    two-emulation path would.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "compiler/driver.hh"
#include "compiler/emit.hh"
#include "core/artifact_engine.hh"
#include "sim/emulator.hh"
#include "support/logging.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;
using compiler::EmittedBlock;
using Term = compiler::EmittedBlock::Term;

/** Equality in every EmulationResult field; the first differing event
 *  is named, not all of them. */
void
expectSameExecution(const sim::EmulationResult &derived,
                    const sim::EmulationResult &emulated)
{
    EXPECT_EQ(derived.exitValue, emulated.exitValue);
    EXPECT_EQ(derived.dynamicOps, emulated.dynamicOps);
    EXPECT_EQ(derived.dynamicMops, emulated.dynamicMops);
    EXPECT_EQ(derived.dynamicBlocks, emulated.dynamicBlocks);
    EXPECT_EQ(derived.blockCounts, emulated.blockCounts);
    const auto &a = derived.trace.events;
    const auto &b = emulated.trace.events;
    ASSERT_EQ(a.size(), b.size());
    const auto [da, db] = std::mismatch(a.begin(), a.end(), b.begin());
    if (da != a.end()) {
        const std::size_t i = std::size_t(da - a.begin());
        const sim::TraceEvent d = derived.trace.event(i);
        const sim::TraceEvent e = emulated.trace.event(i);
        ADD_FAILURE() << "event " << i << ": derived {" << d.block << ", "
                      << d.next << ", " << d.branchTaken
                      << "}, emulated {" << e.block << ", " << e.next
                      << ", " << e.branchTaken << "}";
    }
    EXPECT_TRUE(derived == emulated);
}

// ---- every workload, through the engine ----

class RelayoutOracle
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(RelayoutOracle, DerivedExecutionMatchesSecondEmulation)
{
    const auto &[name, optimise] = GetParam();
    const auto &w = workloads::workloadByName(name);
    core::PipelineConfig config;
    config.compile.optimise = optimise;
    core::ArtifactEngine engine(1);
    const auto a = engine.build(
        w.source, core::ArtifactRequest{core::ArtifactKind::kTrace},
        config, name);
    EXPECT_EQ(engine.stats().emulations, 1u);
    const auto emulated = sim::emulate(a->compiled.program,
                                       a->compiled.data);
    expectSameExecution(a->execution, emulated);
    EXPECT_EQ(emulated.exitValue, w.reference());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, RelayoutOracle,
    ::testing::Combine(
        ::testing::Values("compress", "gcc", "go", "ijpeg", "li",
                          "m88ksim", "perl", "vortex", "fir", "matmul"),
        ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_O2" : "_O0");
    });

// ---- the MOP budget ----

/** The message of the FatalError @p build throws, if any. */
template <typename Build>
std::optional<std::string>
fatalOf(Build &&build)
{
    try {
        build();
    } catch (const support::FatalError &error) {
        return error.message();
    }
    return std::nullopt;
}

TEST(RelayoutBudget, EngineTripsExactlyWhenTwoEmulationsWould)
{
    const isa::MachineConfig machine = isa::MachineConfig::paperDefault();
    unsigned derived_total_larger = 0;
    for (const bool optimise : {true, false}) {
        compiler::CompileOptions options;
        options.optimise = optimise;
        for (const auto &w : workloads::allWorkloads()) {
            SCOPED_TRACE(w.name + (optimise ? " -O2" : " -O0"));

            // The two-emulation path, with a budget on both runs.
            auto two_emulations = [&](std::uint64_t budget) {
                sim::EmulatorConfig emulator;
                emulator.maxMops = budget;
                emulator.recordTrace = false;
                auto compiled = compiler::compileSource(w.source, options);
                const auto profile = sim::emulate(
                    compiled.program, compiled.data, emulator);
                compiler::applyProfileAndRelayout(
                    compiled, profile.blockCounts, machine);
                return sim::emulate(compiled.program, compiled.data,
                                    emulator);
            };
            auto compiled = compiler::compileSource(w.source, options);
            const std::uint64_t profile_mops =
                sim::emulate(compiled.program, compiled.data).dynamicMops;
            const std::uint64_t trace_mops =
                two_emulations(sim::EmulatorConfig{}.maxMops).dynamicMops;
            derived_total_larger += trace_mops > profile_mops;

            for (std::uint64_t budget : {profile_mops, profile_mops - 1,
                                         trace_mops, trace_mops - 1}) {
                SCOPED_TRACE(budget);
                const auto expected =
                    fatalOf([&] { two_emulations(budget); });
                EXPECT_EQ(expected.has_value(),
                          budget < std::max(profile_mops, trace_mops));
                core::PipelineConfig config;
                config.compile = options;
                config.maxMops = budget;
                core::ArtifactEngine engine(1);
                const auto actual = fatalOf([&] {
                    engine.build(w.source, core::ArtifactRequest::none(),
                                 config, w.name);
                });
                EXPECT_EQ(actual, expected);
            }
        }
    }
    // Relayout usually saves MOPs, so the profile run trips first; in
    // some build (m88ksim at -O0) it costs MOPs, and only the check on
    // the derived total can trip.
    EXPECT_GT(derived_total_larger, 0u);
}

// ---- hand-built programs for the paths no workload reaches ----

isa::Operation
ldi(unsigned dest, std::uint32_t imm)
{
    isa::Operation op = isa::Operation::make(isa::OpType::kInt,
                                             isa::Opcode::kLdi);
    op.setDest(dest);
    op.setImm(imm);
    return op;
}

/** An OpType::kInt op (IntAlu or IntCmpp): dest <- src1 op src2. */
isa::Operation
intOp(isa::Opcode opcode, unsigned dest, unsigned src1, unsigned src2)
{
    isa::Operation op = isa::Operation::make(isa::OpType::kInt, opcode);
    op.setDest(dest);
    op.setSrc1(src1);
    op.setSrc2(src2);
    return op;
}

EmittedBlock
block(std::vector<isa::Operation> ops, Term term,
      std::uint32_t then_target = compiler::kNoTarget,
      std::uint32_t else_target = compiler::kNoTarget,
      unsigned pred_reg = 0)
{
    EmittedBlock blk;
    blk.ops = std::move(ops);
    blk.term = term;
    blk.thenTarget = then_target;
    blk.elseTarget = else_target;
    blk.predReg = pred_reg;
    return blk;
}

/** Both layouts of one hand-built program and both runs of the new one. */
struct Relaid
{
    std::vector<asmgen::BlockOrigin> oldSource;
    sim::EmulationResult profile;
    compiler::CompiledProgram compiled;
    std::vector<isa::BlockId> newIds;
    sim::EmulationResult derived;
    sim::EmulationResult emulated;

    /** How often the run @p result of a layout with @p source passed
     *  through one of its jump stubs. */
    static std::uint64_t
    stubRuns(const std::vector<asmgen::BlockOrigin> &source,
             const sim::EmulationResult &result)
    {
        std::uint64_t runs = 0;
        for (std::size_t i = 0; i < result.trace.events.size(); ++i)
            runs += source[result.trace.event(i).block].stub;
        return runs;
    }

    /** The new-layout events of emitted block @p local of main. */
    std::vector<sim::TraceEvent>
    eventsOf(std::uint32_t local) const
    {
        std::vector<sim::TraceEvent> out;
        for (std::size_t i = 0; i < derived.trace.events.size(); ++i) {
            const sim::TraceEvent ev = derived.trace.event(i);
            const auto &origin = compiled.blockSource[ev.block];
            if (origin.local == local && !origin.stub)
                out.push_back(ev);
        }
        return out;
    }
};

/**
 * Lay out one-function @p blocks with @p weights (one per block; the
 * first layout folds them in as a profile whose block ids are the
 * emitted ones), run it with its trace, relay it out from that run's
 * counts, then both derive and emulate the new layout.
 */
Relaid
relayOut(std::vector<EmittedBlock> blocks,
         const std::vector<std::uint64_t> &weights)
{
    const isa::MachineConfig machine = isa::MachineConfig::paperDefault();
    Relaid r;
    compiler::EmittedFunction main;
    main.name = "main";
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        blocks[b].label = "main.b" + std::to_string(b);
        r.compiled.blockSource.push_back({0, std::uint32_t(b), false});
    }
    main.blocks = std::move(blocks);
    r.compiled.emitted.functions.push_back(std::move(main));
    compiler::applyProfileAndRelayout(r.compiled, weights, machine);

    r.oldSource = r.compiled.blockSource;
    r.profile = sim::emulate(r.compiled.program, r.compiled.data);
    r.newIds = compiler::applyProfileAndRelayout(
        r.compiled, r.profile.blockCounts, machine);
    r.derived = sim::deriveExecution(r.profile, r.newIds,
                                     r.compiled.program);
    r.emulated = sim::emulate(r.compiled.program, r.compiled.data);
    return r;
}

constexpr unsigned kCounter = 4;  // r4: the loop counter
constexpr unsigned kOne = 5;      // r5: a constant
constexpr unsigned kExit = 3;     // r3: main's result
constexpr unsigned kCond = 1;     // p1: the branch predicate
constexpr unsigned kLoop = 2;     // p2: the loop predicate

TEST(RelayoutStub, RunsInTheOldLayoutOnly)
{
    // entry -> test; test: counter > 0 ? body : exit; body: --counter.
    // The first weights chain entry -> exit, then body -> test, so
    // test's two sides are both placed before it: it needs a stub to
    // reach exit. The measured counts make test hot and drop the stub.
    auto r = relayOut(
        {block({ldi(kCounter, 2),
                intOp(isa::Opcode::kCmppEq, kCond, 0, 0)},
               Term::kBr, 1, 3, kCond),
         block({intOp(isa::Opcode::kCmppGt, kCond, kCounter, 0)},
               Term::kBr, 2, 3, kCond),
         block({ldi(kOne, 1),
                intOp(isa::Opcode::kSub, kCounter, kCounter, kOne)},
               Term::kJmp, 1),
         block({ldi(kExit, 7)}, Term::kRet)},
        {1, 1, 3, 5});
    EXPECT_EQ(Relaid::stubRuns(r.oldSource, r.profile), 1u);
    EXPECT_EQ(Relaid::stubRuns(r.compiled.blockSource, r.emulated), 0u);
    EXPECT_EQ(std::count(r.newIds.begin(), r.newIds.end(), isa::kNoBlock),
              1);
    expectSameExecution(r.derived, r.emulated);
    EXPECT_EQ(r.emulated.exitValue, 7);
}

TEST(RelayoutStub, RunsInTheNewLayoutOnly)
{
    // entry -> body -> test; test: counter > 0 ? body : exit. The first
    // weights keep the loop in one chain. The measured counts tie
    // everywhere, so entry falls through to exit and body -> test
    // chains last, with both of test's sides already placed.
    auto r = relayOut(
        {block({ldi(kCounter, 1),
                intOp(isa::Opcode::kCmppEq, kCond, 0, 0)},
               Term::kBr, 1, 3, kCond),
         block({ldi(kOne, 1),
                intOp(isa::Opcode::kSub, kCounter, kCounter, kOne)},
               Term::kJmp, 2),
         block({intOp(isa::Opcode::kCmppGt, kCond, kCounter, 0)},
               Term::kBr, 1, 3, kCond),
         block({ldi(kExit, 9)}, Term::kRet)},
        {1, 10, 10, 1});
    EXPECT_EQ(Relaid::stubRuns(r.oldSource, r.profile), 0u);
    EXPECT_EQ(Relaid::stubRuns(r.compiled.blockSource, r.emulated), 1u);
    expectSameExecution(r.derived, r.emulated);
    EXPECT_EQ(r.emulated.exitValue, 9);
}

TEST(RelayoutThenEqualsElse, TakenBothWaysBesideItsTarget)
{
    // b1 branches to b2 on both sides, under a predicate that is true
    // on the first pass and false on the second.
    auto r = relayOut(
        {block({ldi(kCounter, 2)}, Term::kJmp, 1),
         block({ldi(kOne, 2),
                intOp(isa::Opcode::kCmppEq, kCond, kCounter, kOne)},
               Term::kBr, 2, 2, kCond),
         block({ldi(kOne, 1),
                intOp(isa::Opcode::kSub, kCounter, kCounter, kOne),
                intOp(isa::Opcode::kCmppGt, kLoop, kCounter, 0)},
               Term::kBr, 1, 3, kLoop),
         block({ldi(kExit, 5)}, Term::kRet)},
        {1, 1, 1, 1});
    const auto events = r.eventsOf(1);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_TRUE(events[0].branchTaken);
    EXPECT_FALSE(events[1].branchTaken);
    EXPECT_EQ(events[0].next, events[1].next);
    EXPECT_EQ(Relaid::stubRuns(r.compiled.blockSource, r.emulated), 0u);
    expectSameExecution(r.derived, r.emulated);
    EXPECT_EQ(r.emulated.exitValue, 5);
}

TEST(RelayoutThenEqualsElse, TakenBothWaysThroughStubs)
{
    // b2 branches back to b1 on both sides; b1 is always placed before
    // it and b2 never falls into it, so b2's else side is a stub in
    // both layouts. Its predicate is false on the first pass and true
    // on the second.
    auto r = relayOut(
        {block({ldi(kCounter, 3)}, Term::kJmp, 1),
         block({ldi(kOne, 1),
                intOp(isa::Opcode::kSub, kCounter, kCounter, kOne),
                intOp(isa::Opcode::kCmppGt, kLoop, kCounter, 0)},
               Term::kBr, 2, 3, kLoop),
         block({intOp(isa::Opcode::kCmppEq, kCond, kCounter, kOne)},
               Term::kBr, 1, 1, kCond),
         block({ldi(kExit, 4)}, Term::kRet)},
        {1, 1, 1, 10});
    const auto events = r.eventsOf(2);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_FALSE(events[0].branchTaken);
    EXPECT_TRUE(events[1].branchTaken);
    EXPECT_EQ(Relaid::stubRuns(r.oldSource, r.profile), 1u);
    EXPECT_EQ(Relaid::stubRuns(r.compiled.blockSource, r.emulated), 1u);
    expectSameExecution(r.derived, r.emulated);
    EXPECT_EQ(r.emulated.exitValue, 4);
}

} // namespace
