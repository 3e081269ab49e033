/**
 * @file
 * Fetch-pipeline simulator: run the paper's three IFetch
 * organisations over one workload and break the cycles down.
 *
 *   $ ./fetch_pipeline_sim m88ksim
 *   $ ./fetch_pipeline_sim gcc --cache-kb 8     # shrink the caches
 *   $ ./fetch_pipeline_sim perl --atb 16        # starve the ATB
 */

#include <cstdio>
#include <string>
#include <string_view>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "support/cli.hh"
#include "support/table.hh"
#include "support/text_file.hh"
#include "workloads/workload.hh"

namespace {

constexpr std::string_view kUsage =
    "usage: fetch_pipeline_sim [workload] [--cache-kb N] [--atb N]\n"
    "  --cache-kb N  L1 capacity in KB, up to 65536 (0 = paper default)\n"
    "  --atb N       ATB entries, up to 65536 (0 = paper default)\n";

} // namespace

int
main(int argc, char **argv)
{
    namespace cli = tepic::support::cli;
    using tepic::fetch::SchemeClass;
    using tepic::support::TextTable;

    std::string name = "m88ksim";
    unsigned cache_kb = 0;  // 0 = paper default
    unsigned atb = 0;
    const tepic::workloads::Workload *found = nullptr;
    cli::checked("fetch_pipeline_sim", kUsage, [&] {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag != "--cache-kb" && flag != "--atb") {
                name = flag;
                continue;
            }
            const std::string value = i + 1 < argc ? argv[++i] : "";
            if (!cli::readUnsigned(value, cli::kMaxTableSize,
                                   flag == "--atb" ? atb : cache_kb)) {
                throw cli::UsageError(
                    flag + " wants an integer from 0 to " +
                    std::to_string(cli::kMaxTableSize) + ", got '" +
                    value + "'");
            }
        }
        found = &tepic::workloads::workloadByName(name);
    });
    const auto &workload = *found;
    std::printf("workload: %s — %s\n", workload.name.c_str(),
                workload.description.c_str());

    // The fetch study needs the three organisation images, the block
    // trace, and the memoized decoders runFetch replays blocks from —
    // not the byte/stream alphabets ArtifactRequest::all() would also
    // pay.
    using tepic::core::ArtifactKind;
    const auto built = tepic::core::ArtifactEngine::global().build(
        workload.source,
        tepic::core::ArtifactRequest{
            ArtifactKind::kBase, ArtifactKind::kFull,
            ArtifactKind::kTailored, ArtifactKind::kTrace,
            ArtifactKind::kDecoder});
    const auto &artifacts = *built;
    std::printf("trace: %zu block fetches, %lu dynamic ops\n\n",
                artifacts.execution.trace.events.size(),
                (unsigned long)artifacts.execution.dynamicOps);

    TextTable table;
    table.setHeader({"scheme", "image KB", "cycles", "IPC",
                     "vs ideal", "L1 hit", "L0 hit", "pred acc",
                     "ATB hit", "Mbit flips"});
    for (auto scheme : {SchemeClass::kBase, SchemeClass::kCompressed,
                        SchemeClass::kTailored}) {
        auto config = tepic::fetch::FetchConfig::paper(scheme);
        if (cache_kb) {
            config.cache.sets =
                cache_kb * 1024 /
                (config.cache.ways * config.cache.lineBytes);
        }
        if (atb)
            config.atbEntries = atb;
        const auto stats =
            tepic::core::runFetch(artifacts, scheme, config);
        const auto &image = tepic::core::imageFor(artifacts, scheme);
        const double l0 = stats.l0Hits + stats.l0Misses
            ? double(stats.l0Hits) /
                  double(stats.l0Hits + stats.l0Misses)
            : 0.0;
        table.addRow(
            {tepic::fetch::schemeClassName(scheme),
             TextTable::num(double(image.bitSize) / 8.0 / 1024.0, 1),
             std::to_string(stats.cycles),
             TextTable::num(stats.ipc(), 3),
             TextTable::percent(stats.ipc() / stats.idealIpc()),
             TextTable::percent(stats.l1HitRate(), 2),
             TextTable::percent(l0, 1),
             TextTable::percent(stats.predictionAccuracy(), 1),
             TextTable::percent(
                 double(stats.atbHits) /
                     double(stats.atbHits + stats.atbMisses), 1),
             TextTable::num(double(stats.busBitFlips) / 1e6, 3)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n(ideal = perfect cache + perfect prediction: "
                "IPC %.3f)\n",
                double(artifacts.execution.dynamicOps) /
                    double(artifacts.execution.dynamicMops));
    return tepic::support::stdoutStatus("fetch_pipeline_sim", 0);
}
