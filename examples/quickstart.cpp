/**
 * @file
 * Quickstart: the whole library in one page.
 *
 * Compiles a small tinkerc program through the artifact engine, runs
 * it in the emulator, builds every encoded image (baseline / Huffman
 * byte/stream/full / tailored ISA), verifies the round trips, and
 * fetch-simulates the three cache organisations of the paper.
 *
 * The engine is request-based: ArtifactRequest::all() builds
 * everything, `{kBase, kTrace}` would build just enough for a
 * baseline fetch simulation, and repeated build() calls for the same
 * source and config return the same cached object.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "core/artifact_engine.hh"
#include "support/table.hh"
#include "support/text_file.hh"

int
main()
{
    // 1. A program in tinkerc, the toolchain's input language.
    const char *source = R"(
        var histogram[64];

        func classify(x): int {
            if (x < 0) { return 0; }
            if (x < 100) { return x / 25 + 1; }
            return 5;
        }

        func main(): int {
            var seed = 7;
            for (var i = 0; i < 5000; i = i + 1) {
                seed = seed * 1103515245 + 12345;
                var sample = (seed >> 16) % 160 - 30;
                var bucket = classify(sample);
                histogram[bucket] = histogram[bucket] + 1;
            }
            var acc = 0;
            for (var b = 0; b < 6; b = b + 1) {
                acc = acc * 31 + histogram[b];
            }
            return acc;
        }
    )";

    // 2. One call: compile (profile-guided), emulate, build every
    //    requested image, ready for the fetch simulators. The engine
    //    parallelises across schemes and memoizes by content, so a
    //    second build() of the same source is free.
    tepic::core::ArtifactEngine engine;
    const tepic::core::Artifacts &artifacts = *engine.build(
        source, tepic::core::ArtifactRequest::all());

    std::printf("compiled: %zu blocks, %zu ops, ILP %.2f, "
                "exit value %d\n",
                artifacts.compiled.program.blocks().size(),
                artifacts.compiled.program.opCount(),
                artifacts.compiled.schedStats.ilp(),
                artifacts.execution.exitValue);
    std::printf("executed: %lu ops in %lu MOPs over %lu blocks\n\n",
                (unsigned long)artifacts.execution.dynamicOps,
                (unsigned long)artifacts.execution.dynamicMops,
                (unsigned long)artifacts.execution.dynamicBlocks);

    // 3. Every image decodes back to the identical op stream.
    tepic::core::verifyRoundTrips(artifacts);
    std::printf("round trips: all schemes verified bit-exact\n\n");

    // 4. Compression summary (the paper's Figure 5 for this program).
    tepic::support::TextTable sizes;
    sizes.setHeader({"scheme", "bits", "vs base", "decoder T"});
    for (const auto &row : tepic::core::summarise(artifacts)) {
        sizes.addRow({row.name, std::to_string(row.codeBits),
                      tepic::support::TextTable::percent(
                          row.ratioVsBase),
                      std::to_string(row.decoderTransistors)});
    }
    std::printf("%s\n", sizes.render().c_str());

    // 5. The three IFetch organisations (Figure 13 for this program).
    tepic::support::TextTable fetch;
    fetch.setHeader({"scheme", "IPC", "ideal", "L1 hit", "pred acc"});
    for (auto scheme : {tepic::fetch::SchemeClass::kBase,
                        tepic::fetch::SchemeClass::kCompressed,
                        tepic::fetch::SchemeClass::kTailored}) {
        const auto stats = tepic::core::runFetch(artifacts, scheme);
        fetch.addRow({tepic::fetch::schemeClassName(scheme),
                      tepic::support::TextTable::num(stats.ipc(), 3),
                      tepic::support::TextTable::num(
                          stats.idealIpc(), 3),
                      tepic::support::TextTable::percent(
                          stats.l1HitRate(), 2),
                      tepic::support::TextTable::percent(
                          stats.predictionAccuracy(), 1)});
    }
    std::printf("%s", fetch.render().c_str());
    return tepic::support::stdoutStatus("quickstart", 0);
}
