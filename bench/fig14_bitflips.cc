/**
 * @file
 * Figure 14 reproduction: "Memory Bus Bit flips Summary" — the power
 * proxy of §5: transitions on the memory bus during instruction-miss
 * (and ATT) traffic, per scheme. Paper reference shape: the results
 * track the degree of compression; Tailored and Compressed both save
 * over Base because each flip delivers more instructions.
 */

#include "common.hh"

namespace {

using namespace tepic;
using fetch::SchemeClass;
using support::TextTable;

void
printFigure14()
{
    std::printf("=== Figure 14: memory bus bit flips ===\n\n");

    TextTable table;
    table.setHeader({"workload", "Base Mflips", "Compressed Mflips",
                     "Tailored Mflips", "comp/base", "tail/base",
                     "flips/1k ops (base)"});

    std::vector<double> comp_rel;
    std::vector<double> tail_rel;
    for (const auto &named : bench::allArtifacts()) {
        const auto &a = named.artifacts();
        const auto base = core::runFetch(a, SchemeClass::kBase,
                                         std::nullopt, named.name);
        const auto comp = core::runFetch(
            a, SchemeClass::kCompressed, std::nullopt, named.name);
        const auto tail = core::runFetch(
            a, SchemeClass::kTailored, std::nullopt, named.name);

        const double mb = double(base.busBitFlips) / 1e6;
        const double mc = double(comp.busBitFlips) / 1e6;
        const double mt = double(tail.busBitFlips) / 1e6;
        const double rc = base.busBitFlips
            ? double(comp.busBitFlips) / double(base.busBitFlips)
            : 1.0;
        const double rt = base.busBitFlips
            ? double(tail.busBitFlips) / double(base.busBitFlips)
            : 1.0;
        comp_rel.push_back(rc);
        tail_rel.push_back(rt);
        table.addRow({named.name, TextTable::num(mb, 3),
                      TextTable::num(mc, 3), TextTable::num(mt, 3),
                      TextTable::percent(rc),
                      TextTable::percent(rt),
                      TextTable::num(double(base.busBitFlips) * 1000 /
                                     double(base.opsDelivered), 1)});
    }
    table.addRow({"average", "", "", "",
                  TextTable::percent(support::mean(comp_rel)),
                  TextTable::percent(support::mean(tail_rel)), ""});
    std::printf("%s\n", table.render().c_str());

    // Headline gauges: suite-average flips relative to Base.
    auto &metrics = support::MetricsRegistry::global();
    metrics.setGauge("fig14.flip_ratio.compressed",
                     support::mean(comp_rel));
    metrics.setGauge("fig14.flip_ratio.tailored",
                     support::mean(tail_rel));
    std::printf("(paper: savings track the degree of compression — "
                "each scheme brings in more instructions per flip)\n");
}

} // namespace

TEPIC_BENCH_MAIN(printFigure14,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kBase,
                     tepic::core::ArtifactKind::kFull,
                     tepic::core::ArtifactKind::kTailored,
                     tepic::core::ArtifactKind::kTrace,
                     tepic::core::ArtifactKind::kDecoder}))
