/**
 * @file
 * Ablation: branch-predictor sophistication (the paper's own future
 * work, §3.4/§7: "more complex branch predictors could be used (e.g.,
 * gshare or PAs Yeh/Patt predictor)").
 *
 * Sweeps the direction predictor under the Base and Compressed fetch
 * organisations. Because the Compressed scheme's whole disadvantage
 * is its larger misprediction penalty, better prediction should help
 * it disproportionately — this bench quantifies whether smarter
 * prediction rescues the compressed scheme on the branchy workloads
 * it loses.
 */

#include "common.hh"

namespace {

using namespace tepic;
using fetch::PredictorConfig;
using fetch::PredictorKind;
using fetch::SchemeClass;
using support::TextTable;

fetch::FetchStats
runWith(const core::Artifacts &a, SchemeClass scheme,
        PredictorKind kind)
{
    auto config = fetch::FetchConfig::paper(scheme);
    config.predictor.kind = kind;
    return core::runFetch(a, scheme, config);
}

void
printAblation()
{
    std::printf("=== Ablation: branch predictor "
                "(2-bit vs gshare vs PAs) ===\n\n");

    TextTable table;
    table.setHeader({"workload", "acc 2bit", "acc gshare", "acc PAs",
                     "base IPC 2bit", "comp IPC 2bit",
                     "comp IPC gshare", "comp IPC PAs",
                     "comp-vs-base gshare"});

    std::vector<double> rel2;
    std::vector<double> relg;
    for (const auto &named : bench::allArtifacts()) {
        if (named.isDspKernel)
            continue;
        const auto &a = named.artifacts();
        const auto base2 =
            runWith(a, SchemeClass::kBase, PredictorKind::kBimodal);
        const auto baseg =
            runWith(a, SchemeClass::kBase, PredictorKind::kGshare);
        const auto comp2 = runWith(a, SchemeClass::kCompressed,
                                   PredictorKind::kBimodal);
        const auto compg = runWith(a, SchemeClass::kCompressed,
                                   PredictorKind::kGshare);
        const auto compp = runWith(a, SchemeClass::kCompressed,
                                   PredictorKind::kPas);
        rel2.push_back(comp2.ipc() / base2.ipc());
        relg.push_back(compg.ipc() / baseg.ipc());

        table.addRow(
            {named.name,
             TextTable::percent(comp2.predictionAccuracy(), 1),
             TextTable::percent(compg.predictionAccuracy(), 1),
             TextTable::percent(compp.predictionAccuracy(), 1),
             TextTable::num(base2.ipc(), 3),
             TextTable::num(comp2.ipc(), 3),
             TextTable::num(compg.ipc(), 3),
             TextTable::num(compp.ipc(), 3),
             TextTable::percent(compg.ipc() / baseg.ipc() - 1.0)});
    }
    std::printf("%s\n", table.render().c_str());

    TextTable summary;
    summary.setHeader({"predictor", "compressed vs base (mean)"});
    summary.addRow({"2bit (paper)",
                    TextTable::percent(support::mean(rel2) - 1.0)});
    summary.addRow({"gshare",
                    TextTable::percent(support::mean(relg) - 1.0)});
    std::printf("%s\n", summary.render().c_str());
    std::printf("(better prediction shrinks the compressed scheme's "
                "decoder-stage penalty exposure — §7's conjecture)\n");
}

} // namespace

TEPIC_BENCH_MAIN(printAblation,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kBase,
                     tepic::core::ArtifactKind::kFull,
                     tepic::core::ArtifactKind::kTrace}))
