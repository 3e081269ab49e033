/**
 * @file
 * Ablation: complex blocks as fetch units (the paper's future work,
 * §7; §3.1 lays out the ground rules). Compares basic-block fetch
 * against profile-formed superblock units for the Base and Compressed
 * organisations: fewer ATT entries and predictions per delivered op,
 * at the cost of side-exit mispredictions and over-fetch. Both runs
 * go through core::runFetch — the unit one with FetchConfig::units
 * set — so the unit runs carry the same per-cause stall tiling and
 * CACHE/HOT records (labelled "<workload>+units") as the plain ones.
 */

#include "common.hh"

#include "fetch/superblock.hh"

namespace {

using namespace tepic;
using fetch::SchemeClass;
using support::TextTable;

void
printAblation()
{
    // This harness requests only {Base, Trace}: the selective-build
    // contract says the engine must not have touched any Huffman or
    // tailored builder. Enforced here so a regression fails loudly.
    const auto engine_stats = bench::benchEngine().stats();
    TEPIC_ASSERT(engine_stats.huffmanImages() == 0 &&
                     engine_stats.tailoredImages == 0,
                 "base-only bench built compressed images: ",
                 engine_stats.huffmanImages(), " huffman, ",
                 engine_stats.tailoredImages, " tailored");
    std::fprintf(stderr,
                 "[bench] selective build check: 0 huffman, 0 "
                 "tailored images built for a base-only request\n");

    std::printf("=== Ablation: basic-block vs complex (superblock) "
                "fetch units ===\n\n");

    TextTable table;
    table.setHeader({"workload", "units/blocks", "avg blk/unit",
                     "side exit%", "BB IPC", "unit IPC",
                     "ATT entries saved", "pred lookups saved",
                     "mispred stall%", "refill stall%",
                     "ATB stall%"});

    std::vector<double> gains;
    for (const auto &named : bench::allArtifacts()) {
        const auto &a = named.artifacts();
        const auto units = fetch::formFetchUnits(
            a.compiled.program, a.trace());
        auto config = fetch::FetchConfig::paper(SchemeClass::kBase);
        config.units = &units;
        const auto plain = core::runFetch(a, SchemeClass::kBase,
                                          std::nullopt, named.name);
        // A label of its own keeps the unit runs' CACHE/HOT session
        // records apart from the basic-block runs'.
        const auto unit = core::runFetch(a, SchemeClass::kBase, config,
                                         named.name + "+units");
        gains.push_back(unit.ipc() / plain.ipc());

        const std::uint64_t plain_preds =
            plain.predictionsCorrect + plain.predictionsWrong;
        const std::uint64_t unit_preds =
            unit.predictionsCorrect + unit.predictionsWrong;
        // The unit runs' exact stall tiling, as shares of their stall.
        auto stall_share = [&](std::uint64_t cause) {
            return TextTable::percent(
                unit.stallCycles ? double(cause) /
                                       double(unit.stallCycles)
                                 : 0.0,
                1);
        };
        table.addRow(
            {named.name,
             std::to_string(units.units) + "/" +
                 std::to_string(units.headOf.size()),
             TextTable::num(units.averageBlocksPerUnit(), 2),
             TextTable::percent(unit.sideExitRate(), 1),
             TextTable::num(plain.ipc(), 3),
             TextTable::num(unit.ipc(), 3),
             TextTable::percent(
                 1.0 - double(units.units) /
                           double(units.headOf.size())),
             TextTable::percent(
                 1.0 - double(unit_preds) / double(plain_preds)),
             stall_share(unit.mispredictStallCycles),
             stall_share(unit.refillStallCycles),
             stall_share(unit.atbStallCycles)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("mean IPC effect of complex fetch units: %+.1f%%\n",
                (support::mean(gains) - 1.0) * 100.0);
    std::printf("(the paper's §3.1: complex blocks are \"a matter of "
                "performance, not correctness\" as long as side exits "
                "are rare)\n");
}

void
BM_UnitFormation(benchmark::State &state)
{
    const auto &a = bench::allArtifacts().front().artifacts();
    for (auto _ : state) {
        auto units = fetch::formFetchUnits(a.compiled.program,
                                           a.execution.trace);
        benchmark::DoNotOptimize(units.units);
    }
}
BENCHMARK(BM_UnitFormation)->Unit(benchmark::kMillisecond);

} // namespace

TEPIC_BENCH_MAIN(printAblation,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kBase,
                     tepic::core::ArtifactKind::kTrace}))
