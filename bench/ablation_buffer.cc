/**
 * @file
 * Ablation: L0 decompression-buffer capacity (§4 sets it to 32 op
 * entries / 160 bytes and claims tight DSP loops fit completely).
 * Sweeps the capacity and reports compressed-scheme IPC and L0 hit
 * rate per workload — showing where the paper's choice sits on the
 * curve, and that the DSP kernels saturate right at small sizes while
 * dispatcher-heavy codes never do.
 */

#include "common.hh"

namespace {

using namespace tepic;
using fetch::SchemeClass;
using support::TextTable;

void
printAblation()
{
    std::printf("=== Ablation: L0 buffer capacity "
                "(compressed scheme) ===\n\n");

    const unsigned sizes[] = {8, 16, 32, 64, 128, 256};

    TextTable ipc;
    std::vector<std::string> header{"workload"};
    for (unsigned s : sizes)
        header.push_back("IPC@" + std::to_string(s));
    header.push_back("L0hit@32");
    ipc.setHeader(header);

    for (const auto &named : bench::allArtifacts()) {
        std::vector<std::string> row{named.name};
        double hit32 = 0.0;
        for (unsigned s : sizes) {
            auto config =
                fetch::FetchConfig::paper(SchemeClass::kCompressed);
            config.l0CapacityOps = s;
            const auto stats = core::runFetch(
                named.artifacts(), SchemeClass::kCompressed,
                config, named.name);
            row.push_back(TextTable::num(stats.ipc(), 3));
            if (s == 32) {
                hit32 = stats.l0Hits + stats.l0Misses
                    ? double(stats.l0Hits) /
                          double(stats.l0Hits + stats.l0Misses)
                    : 0.0;
            }
        }
        row.push_back(TextTable::percent(hit32, 1));
        ipc.addRow(row);
    }
    std::printf("%s\n", ipc.render().c_str());
    std::printf("(paper setting: 32 op entries = 160 bytes; DSP "
                "kernels should saturate by 32, dispatcher codes "
                "should stay flat)\n");
}

} // namespace

TEPIC_BENCH_MAIN(printAblation,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kFull,
                     tepic::core::ArtifactKind::kTrace}))
