/**
 * @file
 * Compression explorer: compare every compression scheme on a named
 * workload or on a tinkerc source file.
 *
 *   $ ./compression_explorer gcc
 *   $ ./compression_explorer path/to/program.tk
 *   $ ./compression_explorer --list
 *
 * Prints the per-scheme size/decoder tradeoff (Figures 5 + 10 for one
 * program), the per-stream-configuration detail, and the tailored
 * ISA's per-format field report.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/artifact_engine.hh"
#include "core/pipeline.hh"
#include "decoder/complexity.hh"
#include "huffman/huffman.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "support/text_file.hh"
#include "workloads/workload.hh"

namespace {

std::string
loadSource(const std::string &arg)
{
    for (const auto &w : tepic::workloads::allWorkloads())
        if (w.name == arg)
            return w.source;
    std::ifstream in(arg);
    if (!in) {
        std::fprintf(stderr,
                     "error: '%s' is neither a workload nor a "
                     "readable file\n", arg.c_str());
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The explorer; main() then checks standard output. */
int
explore(int argc, char **argv)
{
    using tepic::support::TextTable;

    if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
        for (const auto &w : tepic::workloads::allWorkloads())
            std::printf("%-10s %s\n", w.name.c_str(),
                        w.description.c_str());
        return 0;
    }
    const std::string input = argc > 1 ? argv[1] : "compress";
    const std::string source = loadSource(input);

    // A size study needs every image but no trace: ask for exactly
    // that instead of the build-everything wrapper.
    using tepic::core::ArtifactKind;
    std::shared_ptr<const tepic::core::Artifacts> built;
    try {
        built = tepic::core::ArtifactEngine::global().build(
            source,
            tepic::core::ArtifactRequest{
                ArtifactKind::kBase, ArtifactKind::kByte,
                ArtifactKind::kStream, ArtifactKind::kFull,
                ArtifactKind::kTailored});
    } catch (const tepic::support::FatalError &error) {
        // A rejected program: one line naming the input, as tepicc.
        std::fprintf(stderr, "%s: error: %s\n", input.c_str(),
                     error.message().c_str());
        return 1;
    }
    const auto &artifacts = *built;
    tepic::core::verifyRoundTrips(artifacts);

    const auto &program = artifacts.compiled.program;
    std::printf("program: %zu ops, %zu MOPs, %zu blocks, "
                "baseline %.1f KB\n",
                program.opCount(), program.mopCount(),
                program.blocks().size(),
                double(program.baselineBits()) / 8.0 / 1024.0);

    tepic::huffman::SymbolHistogram ops;
    for (const auto &blk : program.blocks())
        for (const auto &mop : blk.mops)
            for (const auto &op : mop.ops())
                ops.add(op.encode());
    std::printf("whole-op entropy: %.2f bits/op over %zu distinct "
                "ops (limit: %.1f%% of baseline)\n\n",
                ops.entropyBits(), ops.distinctSymbols(),
                100.0 * ops.entropyBits() / 40.0);

    TextTable table;
    table.setHeader({"scheme", "KB", "vs base", "decoder T",
                     "bits saved per decoder kT"});
    for (const auto &row : tepic::core::summarise(artifacts)) {
        const double saved =
            double(program.baselineBits()) - double(row.codeBits);
        const std::string efficiency = row.decoderTransistors
            ? TextTable::num(saved /
                             (double(row.decoderTransistors) / 1000.0),
                             1)
            : "-";
        table.addRow({row.name,
                      TextTable::num(double(row.codeBits) / 8.0 /
                                     1024.0, 2),
                      TextTable::percent(row.ratioVsBase),
                      std::to_string(row.decoderTransistors),
                      efficiency});
    }
    std::printf("%s\n", table.render().c_str());

    // Tailored ISA field report: where do the bits go?
    std::printf("tailored ISA: header %u bits (tail 1 + type %u + "
                "opcode %u), %u distinct opcodes\n",
                artifacts.tailoredIsa().headerBits(),
                artifacts.tailoredIsa().opTypeWidth(),
                artifacts.tailoredIsa().opcodeWidth(),
                artifacts.tailoredIsa().distinctOpcodes());
    TextTable formats;
    formats.setHeader({"format", "orig bits", "tailored bits",
                       "dropped fields"});
    for (unsigned f = 0; f < tepic::isa::kNumFormats; ++f) {
        const auto &tf =
            artifacts.tailoredIsa().format(tepic::isa::Format(f));
        if (!tf.used)
            continue;
        unsigned dropped = 0;
        for (const auto &field : tf.fields)
            if (field.width == 0)
                ++dropped;
        formats.addRow({tepic::isa::formatName(tepic::isa::Format(f)),
                        "40",
                        std::to_string(
                            artifacts.tailoredIsa().headerBits() +
                            tf.bodyBits),
                        std::to_string(dropped)});
    }
    std::printf("%s", formats.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return tepic::support::stdoutStatus("compression_explorer",
                                        explore(argc, argv));
}
