/**
 * @file
 * Ablation: treegion-style speculative hoisting (§2.1/§3.1 — the
 * paper's compiler schedules treegions and relies on the encoding's S
 * bit). Compares static ILP, code size and the three schemes' IPC
 * with speculation on and off, plus a hoist-budget sweep.
 *
 * This harness needs a different PipelineConfig per build, so it
 * asks benchMain() for no shared build and drives a private
 * ArtifactEngine inside its print function: all hoist-on/off builds
 * are batched through one buildMany() call, and the budget sweep hits
 * the engine cache for the configurations the first phase already
 * built.
 */

#include "common.hh"

namespace {

using namespace tepic;
using support::TextTable;

// Base + tailored fetch runs; no Huffman images needed at all.
const core::ArtifactRequest kRequest{core::ArtifactKind::kBase,
                                     core::ArtifactKind::kTailored,
                                     core::ArtifactKind::kTrace};

core::PipelineConfig
hoistConfig(bool hoist, unsigned budget = 4)
{
    core::PipelineConfig config;
    config.compile.hoist.enabled = hoist;
    config.compile.hoist.maxOpsPerEdge = budget;
    return config;
}

void
printAblation()
{
    std::printf("=== Ablation: speculative hoisting "
                "(treegion-style code motion) ===\n\n");
    core::ArtifactEngine engine(bench::benchOptions().jobs);
    const auto &selected = bench::benchOptions().workloads;

    // One batch: {off, on} per workload, built concurrently.
    std::vector<core::BuildRequest> requests;
    for (const auto *w : selected) {
        requests.push_back({w->source, kRequest, hoistConfig(false), {}});
        requests.push_back({w->source, kRequest, hoistConfig(true), {}});
    }
    const auto built = engine.buildMany(requests);

    TextTable table;
    table.setHeader({"workload", "hoisted ops", "ILP off", "ILP on",
                     "dyn ops delta", "base IPC off", "base IPC on",
                     "tailored IPC on"});

    std::vector<double> ipc_gain;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const auto &w = *selected[i];
        const auto &off = *built[2 * i];
        const auto &on = *built[2 * i + 1];
        const auto base_off = core::runFetch(
            off, fetch::SchemeClass::kBase, std::nullopt,
            w.name + "/hoist-off");
        const auto base_on = core::runFetch(
            on, fetch::SchemeClass::kBase, std::nullopt, w.name);
        const auto tail_on = core::runFetch(
            on, fetch::SchemeClass::kTailored, std::nullopt, w.name);
        ipc_gain.push_back(base_on.ipc() / base_off.ipc());

        const double dyn_delta =
            double(on.execution.dynamicOps) /
                double(off.execution.dynamicOps) - 1.0;
        table.addRow({w.name,
                      std::to_string(
                          on.compiled.hoistStats.hoistedOps),
                      TextTable::num(off.compiled.schedStats.ilp(), 3),
                      TextTable::num(on.compiled.schedStats.ilp(), 3),
                      TextTable::percent(dyn_delta),
                      TextTable::num(base_off.ipc(), 3),
                      TextTable::num(base_on.ipc(), 3),
                      TextTable::num(tail_on.ipc(), 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("mean base-IPC effect of hoisting: %+.1f%%\n\n",
                (support::mean(ipc_gain) - 1.0) * 100.0);

    // Budget sweep on the branchiest workload. budget == 4 repeats a
    // configuration from the batch above: a pure engine cache hit.
    TextTable sweep;
    sweep.setHeader({"max ops/edge", "hoisted", "ILP", "base IPC"});
    const auto &go = workloads::workloadByName("go");
    for (unsigned budget : {0u, 1u, 2u, 4u, 8u}) {
        const auto a = engine.build(
            go.source, kRequest, hoistConfig(budget > 0, budget));
        const auto stats = core::runFetch(
            *a, fetch::SchemeClass::kBase, std::nullopt, "go");
        sweep.addRow({std::to_string(budget),
                      std::to_string(a->compiled.hoistStats.hoistedOps),
                      TextTable::num(a->compiled.schedStats.ilp(), 3),
                      TextTable::num(stats.ipc(), 3)});
    }
    std::printf("%s", sweep.render().c_str());

    const auto stats = engine.stats();
    std::fprintf(stderr,
                 "[bench] engine: %llu compiles, %llu cache hits, "
                 "%llu huffman images (expected 0)\n",
                 (unsigned long long)stats.compiles,
                 (unsigned long long)stats.cacheHits,
                 (unsigned long long)stats.huffmanImages());
}

void
BM_HoistPass(benchmark::State &state)
{
    const auto &source = workloads::workloadByName("gcc").source;
    for (auto _ : state) {
        auto compiled = compiler::compileSource(source);
        benchmark::DoNotOptimize(compiled.hoistStats.hoistedOps);
    }
}
BENCHMARK(BM_HoistPass)->Unit(benchmark::kMillisecond);

} // namespace

TEPIC_BENCH_MAIN(printAblation, std::nullopt)
