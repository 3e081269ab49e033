/**
 * @file
 * Tailored-decoder generator: the compiler-emits-the-decoder story of
 * the paper (§2.3: "the Verilog code for the decoder is produced by
 * the compiler and used to configure the PLA").
 *
 *   $ ./tailored_decoder_gen matmul            # print to stdout
 *   $ ./tailored_decoder_gen gcc decoder.v     # write to a file
 *
 * An output file that cannot be written is an error (exit 1).
 */

#include <cstdio>
#include <string_view>

#include "core/artifact_engine.hh"
#include "decoder/complexity.hh"
#include "support/cli.hh"
#include "support/text_file.hh"
#include "workloads/workload.hh"

namespace {

constexpr std::string_view kUsage =
    "usage: tailored_decoder_gen [workload] [out.v]\n";

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "matmul";
    const tepic::workloads::Workload *found = nullptr;
    tepic::support::cli::checked("tailored_decoder_gen", kUsage, [&] {
        found = &tepic::workloads::workloadByName(name);
    });
    const auto &workload = *found;

    // Only the tailored ISA is consumed: request exactly that (the
    // engine then builds no baseline or Huffman image at all).
    const auto artifacts = tepic::core::ArtifactEngine::global().build(
        workload.source,
        tepic::core::ArtifactRequest{
            tepic::core::ArtifactKind::kTailored});

    const auto &isa = artifacts->tailoredIsa();
    std::fprintf(stderr,
                 "tailored ISA for %s: header %u bits, %u opcodes, "
                 "image %.1f%% of baseline, PLA estimate %lu "
                 "transistors\n",
                 name.c_str(), isa.headerBits(),
                 isa.distinctOpcodes(),
                 100.0 * artifacts->ratio(artifacts->tailoredImage()),
                 (unsigned long)
                     tepic::decoder::tailoredDecoderTransistors(isa));

    const std::string verilog =
        isa.emitVerilog(name + "_tailored_decoder");
    if (argc > 2) {
        if (!tepic::support::writeTextFile(argv[2], verilog, "verilog"))
            return 1;
        std::fprintf(stderr, "wrote %zu bytes to %s\n",
                     verilog.size(), argv[2]);
    } else {
        std::fputs(verilog.c_str(), stdout);
    }
    return tepic::support::stdoutStatus("tailored_decoder_gen", 0);
}
