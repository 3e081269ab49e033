/**
 * @file
 * Figure 10 reproduction: "Huffman Decoder Complexity" — the paper's
 * worst-case transistor-count model
 *
 *     T = 2m(2^n − 1) + 4m(2^n − 2^(n−1) − 1) + 2n
 *
 * evaluated over every scheme's dictionaries, next to the tailored
 * ISA's PLA cost. Paper reference shape: Full largest, byte smallest
 * among Huffman (limited input width and dictionary), tailored far
 * below all of them — this is what makes Tailored attractive despite
 * its weaker compression (§5 discussion).
 */

#include "common.hh"

#include "codec/codec.hh"
#include "decoder/complexity.hh"

namespace {

using namespace tepic;
using support::TextTable;

void
printFigure10()
{
    std::printf("=== Figure 10: decoder complexity "
                "(transistor-count model of Section 3.5) ===\n\n");

    TextTable table;
    table.setHeader({"workload", "byte kT", "stream kT",
                     "stream_1 kT", "full kT", "tailored kT"});

    std::vector<double> byte_t;
    std::vector<double> stream_t;
    std::vector<double> stream1_t;
    std::vector<double> full_t;
    std::vector<double> tail_t;
    for (const auto &named : bench::allArtifacts()) {
        const auto &a = named.artifacts();
        const auto kT = [](std::uint64_t t) {
            return double(t) / 1000.0;
        };
        const double byte =
            kT(decoder::decoderTransistors(a.byteImage()));
        const double stream = kT(decoder::decoderTransistors(
            a.streamImage(a.bestStreamByDecoder())));
        const double stream1 = kT(decoder::decoderTransistors(
            a.streamImage(a.bestStreamBySize())));
        const double full =
            kT(decoder::decoderTransistors(a.fullImage()));
        const double tailored =
            kT(decoder::tailoredDecoderTransistors(a.tailoredIsa()));
        byte_t.push_back(byte);
        stream_t.push_back(stream);
        stream1_t.push_back(stream1);
        full_t.push_back(full);
        tail_t.push_back(tailored);
        table.addRow({named.name, TextTable::num(byte, 0),
                      TextTable::num(stream, 0),
                      TextTable::num(stream1, 0),
                      TextTable::num(full, 0),
                      TextTable::num(tailored, 1)});
    }
    table.addRow({"average", TextTable::num(support::mean(byte_t), 0),
                  TextTable::num(support::mean(stream_t), 0),
                  TextTable::num(support::mean(stream1_t), 0),
                  TextTable::num(support::mean(full_t), 0),
                  TextTable::num(support::mean(tail_t), 1)});
    std::printf("%s\n", table.render().c_str());

    // Headline gauges (suite-average kilotransistors) for the report.
    auto &metrics = support::MetricsRegistry::global();
    metrics.setGauge("fig10.decoder_kt.byte", support::mean(byte_t));
    metrics.setGauge("fig10.decoder_kt.stream",
                     support::mean(stream_t));
    metrics.setGauge("fig10.decoder_kt.stream_1",
                     support::mean(stream1_t));
    metrics.setGauge("fig10.decoder_kt.full", support::mean(full_t));
    metrics.setGauge("fig10.decoder_kt.tailored",
                     support::mean(tail_t));

    // Dictionary shapes behind the model, for the largest workload.
    const auto *gcc_named = bench::findArtifacts("gcc");
    if (gcc_named == nullptr) {
        std::printf("(gcc not in --workloads subset; skipping the "
                    "dictionary-shape table)\n");
        return;
    }
    const auto &gcc = gcc_named->artifacts();
    TextTable dict;
    dict.setHeader({"scheme (gcc)", "tables", "max n", "entries k",
                    "m bits"});
    auto row = [&](const std::string &name,
                   const schemes::CompressedImage &img) {
        const codec::DictionaryShape shape = codec::describeShape(img);
        dict.addRow({name, std::to_string(shape.tables),
                     std::to_string(shape.maxCodeLength),
                     std::to_string(shape.entries),
                     std::to_string(shape.maxSymbolBits)});
    };
    row("byte", gcc.byteImage());
    row("stream_1", gcc.streamImage(gcc.bestStreamBySize()));
    row("full", gcc.fullImage());
    std::printf("%s\n", dict.render().c_str());
    std::printf("(reference hardware, Section 3.5: 114-entry decoder "
                "with 1-16 bit codes = 10k-28k transistors)\n");
}

} // namespace

TEPIC_BENCH_MAIN(printFigure10,
                 (tepic::core::ArtifactRequest{
                     tepic::core::ArtifactKind::kByte,
                     tepic::core::ArtifactKind::kStream,
                     tepic::core::ArtifactKind::kFull,
                     tepic::core::ArtifactKind::kTailored}))
