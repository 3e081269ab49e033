#include "compiler/driver.hh"

#include "asmgen/layout.hh"
#include "compiler/irgen.hh"
#include "compiler/lower.hh"
#include "compiler/parser.hh"
#include "ir/analysis.hh"
#include "support/logging.hh"
#include "support/scope.hh"

namespace tepic::compiler {

namespace {

/** Layout + schedule one EmittedProgram into a CompiledProgram. */
void
layoutAndSchedule(CompiledProgram &out,
                  const isa::MachineConfig &machine)
{
    asmgen::LaidOutProgram laid = asmgen::layoutProgram(out.emitted);
    out.hoistStats =
        asmgen::hoistSpeculatively(laid, out.hoistOptions);
    out.blockSource = laid.blockSource;
    out.schedStats = ScheduleStats{};
    out.program = scheduleProgram(laid, machine, &out.schedStats);
    out.data = laid.data;
}

} // namespace

CompiledProgram
compileSource(const std::string &source, const CompileOptions &options)
{
    AstProgram ast;
    ir::IrModule module;
    {
        const support::Scope scope(support::Layer::kFrontend);
        ast = parse(source);
        module = generateIr(ast);
    }
    {
        const support::Scope scope(support::Layer::kOptimise);
        if (options.optimise)
            optimise(module);
        for (auto &fn : module.functions)
            ir::estimateWeights(fn);
    }

    const support::Scope scope(support::Layer::kBackend);
    LirProgram lir = lower(module);
    CompiledProgram out;
    out.hoistOptions = options.hoist;
    out.raStats = allocateRegisters(lir);
    out.emitted = emit(lir);
    layoutAndSchedule(out, options.machine);
    return out;
}

std::vector<isa::BlockId>
applyProfileAndRelayout(CompiledProgram &compiled,
                        const std::vector<std::uint64_t> &counts,
                        const isa::MachineConfig &machine)
{
    const support::Scope scope(support::Layer::kBackend);
    TEPIC_ASSERT(counts.size() == compiled.blockSource.size(),
                 "profile size mismatch: ", counts.size(), " vs ",
                 compiled.blockSource.size());

    // Reset weights, then accumulate measured counts (stubs fold into
    // the branch block they serve).
    auto &functions = compiled.emitted.functions;
    for (auto &fn : functions)
        for (auto &blk : fn.blocks)
            blk.weight = 0.0;
    for (std::size_t g = 0; g < counts.size(); ++g) {
        const asmgen::BlockOrigin &origin = compiled.blockSource[g];
        functions[origin.func].blocks[origin.local].weight +=
            double(counts[g]);
    }
    const std::vector<asmgen::BlockOrigin> old_source =
        std::move(compiled.blockSource);
    layoutAndSchedule(compiled, machine);

    // Where each emitted block landed, then where each old block did.
    std::vector<std::vector<isa::BlockId>> placed(functions.size());
    for (std::size_t f = 0; f < functions.size(); ++f)
        placed[f].resize(functions[f].blocks.size());
    for (std::size_t b = 0; b < compiled.blockSource.size(); ++b) {
        const asmgen::BlockOrigin &origin = compiled.blockSource[b];
        if (!origin.stub)
            placed[origin.func][origin.local] = isa::BlockId(b);
    }
    std::vector<isa::BlockId> new_id;
    new_id.reserve(old_source.size());
    for (const asmgen::BlockOrigin &origin : old_source) {
        new_id.push_back(origin.stub ? isa::kNoBlock
                                     : placed[origin.func][origin.local]);
    }
    return new_id;
}

} // namespace tepic::compiler
