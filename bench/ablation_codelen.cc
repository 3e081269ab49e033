/**
 * @file
 * Ablation: bounded-Huffman maximum code length (§2.2/§3.5). The
 * paper bounds code lengths because "Huffman will produce very long
 * output codes that are incompatible with IFetch hardware"; the bound
 * trades compression (longer codes allowed = closer to entropy)
 * against decoder size (the model's 2^n term). This sweep regenerates
 * that tradeoff for the full-op scheme.
 */

#include "common.hh"

#include "decoder/complexity.hh"

namespace {

using namespace tepic;
using support::TextTable;

void
printAblation()
{
    std::printf("=== Ablation: bounded-Huffman max code length "
                "(full-op scheme) ===\n\n");

    const unsigned bounds[] = {10, 12, 14, 16, 18, 20};

    TextTable table;
    std::vector<std::string> header{"workload"};
    for (unsigned b : bounds)
        header.push_back("sz@" + std::to_string(b));
    for (unsigned b : bounds)
        header.push_back("kT@" + std::to_string(b));
    table.setHeader(header);

    for (const auto &named : bench::allArtifacts()) {
        const auto &program = named.artifacts().compiled.program;
        std::vector<std::string> row{named.name};
        std::vector<std::string> costs;
        for (unsigned b : bounds) {
            // The bound must cover the dictionary.
            schemes::HuffmanOptions opts;
            opts.maxCodeLength = b;
            schemes::CompressedImage img;
            bool ok = true;
            try {
                img = schemes::compressFull(program, opts);
            } catch (const std::exception &) {
                ok = false;  // 2^b < dictionary size
            }
            if (ok) {
                row.push_back(TextTable::percent(
                    named.artifacts().ratio(img.image)));
                costs.push_back(TextTable::num(
                    double(decoder::decoderTransistors(img)) / 1000.0,
                    0));
            } else {
                row.push_back("n/a");
                costs.push_back("n/a");
            }
        }
        for (auto &c : costs)
            row.push_back(std::move(c));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("(the 2^n decoder term grows ~4x per +2 bits; size "
                "gains saturate once the bound clears the entropy "
                "profile)\n");
}

} // namespace

TEPIC_BENCH_MAIN(printAblation,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kBase}))
