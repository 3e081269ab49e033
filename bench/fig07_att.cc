/**
 * @file
 * Figure 7 reproduction: "ATB Characteristics. Total code Size." —
 * the Address Translation Table's contribution to total ROM size for
 * the compressed and tailored images (the paper reports ≈ +15.5 %),
 * and the ATB's runtime behaviour (hit rate, entry count sensitivity).
 */

#include "common.hh"

#include "fetch/att.hh"

namespace {

using namespace tepic;
using support::TextTable;

void
printFigure7()
{
    std::printf("=== Figure 7: ATT size / total code size and ATB "
                "characteristics ===\n\n");

    // The paper's "+15.5%" is relative to the *original* image size
    // (Figure 7 plots total code size against the original); the ATT
    // itself is the same for every encoding of a given program.
    TextTable table;
    table.setHeader({"workload", "ATT KB", "vs original",
                     "full code KB", "full+ATT KB", "vs full img",
                     "ATB hit%"});

    std::vector<double> overheads;
    for (const auto &named : bench::allArtifacts()) {
        const auto &a = named.artifacts();
        const auto &att = a.att();
        const double code_kb =
            double(a.fullImage().image.bitSize) / 8.0 / 1024.0;
        const double att_kb = double(att.totalBits()) / 8.0 / 1024.0;
        const double vs_original =
            att.overheadVs(a.compiled.program.baselineBits());
        const double vs_full =
            att.overheadVs(a.fullImage().image.bitSize);
        overheads.push_back(vs_original);

        const auto stats = core::runFetch(
            a, fetch::SchemeClass::kCompressed, std::nullopt,
            named.name);
        const double atb_rate =
            double(stats.atbHits) /
            double(stats.atbHits + stats.atbMisses);

        table.addRow({named.name, TextTable::num(att_kb, 1),
                      TextTable::percent(vs_original),
                      TextTable::num(code_kb, 1),
                      TextTable::num(code_kb + att_kb, 1),
                      TextTable::percent(vs_full),
                      TextTable::percent(atb_rate, 2)});
    }
    TextTable avg;
    avg.setHeader({"average ATT overhead vs original image"});
    avg.addRow({TextTable::percent(support::mean(overheads))});
    // Headline gauge for the fidelity report (paper: ≈ +15.5 %).
    support::MetricsRegistry::global().setGauge(
        "fig07.att_overhead.avg", support::mean(overheads));
    std::printf("%s\n%s\n", table.render().c_str(),
                avg.render().c_str());
    std::printf("(paper reference: the ATT adds approximately 15.5%% "
                "to the image size)\n\n");

    // ATB entry-count sensitivity on the largest workload.
    TextTable sweep;
    sweep.setHeader({"ATB entries", "hit%", "IPC (compressed, gcc)"});
    const auto *gcc = bench::findArtifacts("gcc");
    if (gcc == nullptr) {
        std::printf("(gcc not in --workloads subset; skipping the "
                    "ATB sweep)\n");
        return;
    }
    for (unsigned entries : {8u, 16u, 32u, 64u, 128u, 256u}) {
        auto config =
            fetch::FetchConfig::paper(fetch::SchemeClass::kCompressed);
        config.atbEntries = entries;
        const auto stats = core::runFetch(
            gcc->artifacts(), fetch::SchemeClass::kCompressed,
            config, "gcc");
        sweep.addRow({std::to_string(entries),
                      TextTable::percent(
                          double(stats.atbHits) /
                          double(stats.atbHits + stats.atbMisses), 2),
                      TextTable::num(stats.ipc(), 3)});
    }
    std::printf("%s\n", sweep.render().c_str());
}

} // namespace

TEPIC_BENCH_MAIN(printFigure7,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kFull,
                     tepic::core::ArtifactKind::kAtt,
                     tepic::core::ArtifactKind::kTrace}))
