/**
 * @file
 * Microbenchmarks over the library's hot kernels: bit streams,
 * Huffman encode/decode, cache/ATB accesses, the full compiler, and
 * block-trace simulation. These are performance regression guards for
 * the library itself (not paper reproductions).
 */

#include <benchmark/benchmark.h>

#include "common.hh"

#include "codec/codec.hh"
#include "compiler/driver.hh"
#include "fetch/att.hh"
#include "fetch/banked_cache.hh"
#include "huffman/huffman.hh"
#include "isa/baseline.hh"
#include "sim/emulator.hh"
#include "support/bitstream.hh"
#include "support/rng.hh"
#include "support/sched.hh"
#include "support/scope.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;

void
BM_BitWriter(benchmark::State &state)
{
    for (auto _ : state) {
        support::BitWriter w;
        for (int i = 0; i < 10000; ++i)
            w.writeBits(std::uint64_t(i) & 0x1fff, 13);
        benchmark::DoNotOptimize(w.byteSize());
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BitWriter);

void
BM_BitReader(benchmark::State &state)
{
    support::BitWriter w;
    for (int i = 0; i < 10000; ++i)
        w.writeBits(std::uint64_t(i) & 0x1fff, 13);
    for (auto _ : state) {
        support::BitReader r(w.bytes().data(), w.bitSize());
        std::uint64_t acc = 0;
        for (int i = 0; i < 10000; ++i)
            acc ^= r.readBits(13);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_BitReader);

const huffman::CodeTable &
sampleTable()
{
    static const huffman::CodeTable table = [] {
        huffman::SymbolHistogram hist;
        support::Rng rng(1);
        for (int i = 0; i < 500; ++i)
            hist.add(std::uint64_t(i), rng.below(10000) + 1);
        return huffman::CodeTable::build(hist, 16);
    }();
    return table;
}

void
BM_HuffmanEncode(benchmark::State &state)
{
    const auto &table = sampleTable();
    support::Rng rng(2);
    std::vector<std::uint64_t> symbols;
    for (int i = 0; i < 10000; ++i)
        symbols.push_back(rng.below(500));
    for (auto _ : state) {
        support::BitWriter w;
        for (auto s : symbols)
            table.encode(s, w);
        benchmark::DoNotOptimize(w.byteSize());
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_HuffmanEncode);

void
BM_HuffmanDecode(benchmark::State &state)
{
    const auto &table = sampleTable();
    support::Rng rng(2);
    support::BitWriter w;
    for (int i = 0; i < 10000; ++i)
        table.encode(rng.below(500), w);
    for (auto _ : state) {
        support::BitReader r(w.bytes().data(), w.bitSize());
        benchmark::DoNotOptimize(
            codec::decodeChecksum(table, r, 10000));
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_HuffmanDecode);

/**
 * The pre-LUT per-bit canonical walk, kept as a measurable reference:
 * the BM_HuffmanDecode / BM_HuffmanDecodeReference ratio is the
 * observable win of the first-level lookup table.
 */
void
BM_HuffmanDecodeReference(benchmark::State &state)
{
    const auto &table = sampleTable();
    support::Rng rng(2);
    support::BitWriter w;
    for (int i = 0; i < 10000; ++i)
        table.encode(rng.below(500), w);
    for (auto _ : state) {
        support::BitReader r(w.bytes().data(), w.bitSize());
        benchmark::DoNotOptimize(
            codec::decodeChecksumReference(table, r, 10000));
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_HuffmanDecodeReference);

void
BM_CacheAccess(benchmark::State &state)
{
    fetch::BankedCache cache(fetch::CacheConfig::paperCompressed());
    support::Rng rng(7);
    std::vector<std::uint32_t> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(std::uint32_t(rng.below(64 * 1024)));
    for (auto _ : state) {
        std::uint64_t acc = 0;
        for (auto a : addrs)
            acc += cache.accessBlock(a, 24).hit;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_CacheAccess);

void
BM_CompileWorkload(benchmark::State &state)
{
    const auto &source =
        workloads::workloadByName("compress").source;
    for (auto _ : state) {
        auto compiled = compiler::compileSource(source);
        benchmark::DoNotOptimize(compiled.program.opCount());
    }
}
BENCHMARK(BM_CompileWorkload)->Unit(benchmark::kMillisecond);

void
BM_BaselineImage(benchmark::State &state)
{
    static const auto compiled = compiler::compileSource(
        workloads::workloadByName("gcc").source);
    for (auto _ : state) {
        auto image = isa::buildBaselineImage(compiled.program);
        benchmark::DoNotOptimize(image.bitSize);
    }
    state.SetItemsProcessed(
        std::int64_t(state.iterations()) *
        std::int64_t(compiled.program.opCount()));
}
BENCHMARK(BM_BaselineImage)->Unit(benchmark::kMicrosecond);

/**
 * Deterministic sentinels over the same kernels the timed loops
 * exercise: any functional change to a hot kernel moves one of these
 * counters, which the regression gate (tools/tepic_reports.py --diff)
 * compares exactly against bench/baselines/BENCH_microbench.json.
 */
void
recordMicroSentinels()
{
    auto &m = support::MetricsRegistry::global();

    // The microbench has no ArtifactEngine DAG, but its sentinel
    // pass is still schedulable work: declare it up front (the
    // whole graph before anything runs, like the engine does) so
    // SCHED_microbench.json exercises the serial-on-main shape of
    // the tepic-sched-v1 contract. The only true edge is
    // compile -> baseline (the image needs the compiled program).
    // Each task is "kernel work", charged to kBenchKernel so the
    // PROF report's ops_encoded_per_sec has a denominator.
    const auto t_bits = support::sched::declareTask(
        {"micro/bitwriter", "micro", "micro", "", {}, false});
    const auto t_huff = support::sched::declareTask(
        {"micro/huffman", "micro", "micro", "", {}, false});
    const auto t_cache = support::sched::declareTask(
        {"micro/cache", "micro", "micro", "", {}, false});
    const auto t_compile = support::sched::declareTask(
        {"compress/compile", "compile", "compress", "", {}, false});
    const auto t_base = support::sched::declareTask(
        {"compress/base", "base", "compress", "", {t_compile},
         false});

    {
        const support::Scope scope(support::Layer::kBenchKernel, t_bits);
        support::BitWriter w;
        for (int i = 0; i < 10000; ++i)
            w.writeBits(std::uint64_t(i) & 0x1fff, 13);
        m.addCounter("micro.bitwriter.bytes", w.byteSize());
    }

    {
        const support::Scope scope(support::Layer::kBenchKernel, t_huff);
        const auto &table = sampleTable();
        support::Rng rng(2);
        support::BitWriter hw;
        for (int i = 0; i < 10000; ++i)
            table.encode(rng.below(500), hw);
        m.addCounter("micro.huffman.encoded_bits", hw.bitSize());
        // The production (LUT) decoder and the canonical-walk
        // reference must agree symbol-for-symbol; the sentinel below
        // is the LUT path's checksum and the reference run re-derives
        // it exactly.
        support::BitReader r(hw.bytes().data(), hw.bitSize());
        const std::uint64_t checksum =
            codec::decodeChecksum(table, r, 10000);
        support::BitReader ref_reader(hw.bytes().data(),
                                      hw.bitSize());
        TEPIC_ASSERT(codec::decodeChecksumReference(
                         table, ref_reader, 10000) == checksum,
                     "LUT decode diverged from the canonical "
                     "reference");
        m.addCounter("micro.huffman.decode_checksum", checksum);
    }

    {
        const support::Scope scope(support::Layer::kBenchKernel, t_cache);
        fetch::BankedCache cache(
            fetch::CacheConfig::paperCompressed());
        support::Rng cache_rng(7);
        std::uint64_t hits = 0;
        for (int i = 0; i < 4096; ++i) {
            hits +=
                cache
                    .accessBlock(
                        std::uint32_t(cache_rng.below(64 * 1024)), 24)
                    .hit;
        }
        m.addCounter("micro.cache.hits", hits);
    }

    const compiler::CompiledProgram compiled = [&] {
        const support::Scope scope(support::Layer::kBenchKernel, t_compile);
        return compiler::compileSource(
            workloads::workloadByName("compress").source);
    }();
    m.addCounter("micro.compile.ops", compiled.program.opCount());
    {
        const support::Scope scope(support::Layer::kBenchKernel, t_base);
        m.addCounter("micro.baseline.image_bits",
                     isa::buildBaselineImage(compiled.program)
                         .bitSize);
    }

    // Deterministic work units behind ops_encoded_per_sec: the
    // 10000 Huffman symbol encodes plus the baseline image's ops.
    m.addCounter("prof.work.ops_encoded",
                 10000 + compiled.program.opCount());
}

} // namespace

// The shared CLI layer and report lifecycle of the figure benches;
// no artefacts are requested — the sentinels build what they need
// inline.
int
main(int argc, char **argv)
{
    return tepic::bench::benchMain(argc, argv, recordMicroSentinels,
                                   std::nullopt);
}
