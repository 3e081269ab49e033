/**
 * @file
 * tepicc — the command-line driver for the whole toolchain.
 *
 *   tepicc run        <prog>            compile + emulate, print exit value
 *   tepicc disasm     <prog>            scheduled VLIW disassembly
 *   tepicc ir         <prog>            optimised IR dump
 *   tepicc stats      <prog>            compile/schedule/regalloc stats
 *   tepicc compress   <prog>            per-scheme size + decoder table
 *   tepicc fetch      <prog> [scheme]   fetch simulation (base|compressed|tailored)
 *   tepicc verilog    <prog>            tailored-ISA decoder Verilog
 *   tepicc trace      <prog> [N]        first N dynamic block-trace events
 *   tepicc verify     <prog>            round-trip + fetch self-check
 *   tepicc workloads                    list built-in workloads
 *
 * <prog> is a tinkerc file path or a built-in workload name. Every
 * command but `ir` builds <prog> through the artifact engine, so it
 * reads the profile-guided layout unless --no-pgo; `verify` also
 * emulates that layout once more and exits 1 if the run differs from
 * the execution the engine derived from the profile run.
 * Global flags: --no-pgo (single-pass layout), -O0 (optimiser off),
 * --trace=<file> (Chrome trace-event JSON for chrome://tracing or
 * Perfetto), --metrics=<file> (metrics registry JSON),
 * --report-dir=<dir> (every core::reports report as
 * <KIND>_tepicc.json), --prof-collapse=<file> (FlameGraph stacks).
 * Exits 1 when <prog> is rejected (a parse or semantic error prints
 * "<prog>: error: ...") or a requested output could not be written,
 * and 2 on a usage error.
 */

#include <climits>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/irgen.hh"
#include "compiler/parser.hh"
#include "core/artifact_engine.hh"
#include "core/reports.hh"
#include "decoder/complexity.hh"
#include "support/cli.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profiler.hh"
#include "support/table.hh"
#include "support/text_file.hh"
#include "support/trace.hh"
#include "workloads/workload.hh"

namespace {

using namespace tepic;

constexpr std::string_view kUsage =
    "usage: tepicc <command> [args]\n"
    "  run|disasm|ir|stats|compress|fetch|verilog|trace|verify <prog>\n"
    "  workloads\n"
    "flags: --no-pgo, -O0, --trace=<file>, --metrics=<file>,\n"
    "       --report-dir=<dir> (PROF, SCHED, CACHE, HOT and, for commands\n"
    "         that build images, SIZE reports as <dir>/<KIND>_tepicc.json),\n"
    "       --prof-collapse=<file> (FlameGraph collapsed stacks),\n"
    "       --log-level=debug|info|warn|error|none (overrides TEPIC_LOG)\n"
    "<prog> = tinkerc file or built-in workload name\n";

int
usage()
{
    std::fwrite(kUsage.data(), 1, kUsage.size(), stderr);
    return 2;
}

std::string
loadSource(const std::string &arg)
{
    for (const auto &w : workloads::allWorkloads())
        if (w.name == arg)
            return w.source;
    std::ifstream in(arg);
    if (!in) {
        std::fprintf(stderr,
                     "tepicc: '%s' is neither a built-in workload nor "
                     "a readable file\n", arg.c_str());
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

struct Options
{
    bool pgo = true;
    bool optimise = true;
    std::string tracePath;
    std::string metricsPath;
    std::string reportDir;
    std::string profCollapsePath;
    std::vector<std::string> positional;
    /** `trace <prog> [N]`: how many events to print. */
    unsigned traceEvents = 50;
    /** `fetch <prog> [scheme]`: the one named, or all three. */
    std::vector<fetch::SchemeClass> fetchSchemes = {
        fetch::SchemeClass::kBase, fetch::SchemeClass::kCompressed,
        fetch::SchemeClass::kTailored};

    /** Whether the report sessions run (their metrics feed --metrics=). */
    bool
    reporting() const
    {
        return !reportDir.empty() || !metricsPath.empty();
    }
};

/**
 * The last engine build of this invocation, kept so
 * finalizeObservability() can report its sizes after the command ran.
 */
struct
{
    std::string name;
    std::shared_ptr<const core::Artifacts> artifacts;
} g_lastBuild;

Options
parseArgs(int argc, char **argv)
{
    namespace cli = support::cli;
    Options opts;
    const cli::Flag flags[] = {
        {"--no-pgo", [&](const std::string &) { opts.pgo = false; }},
        {"-O0", [&](const std::string &) { opts.optimise = false; }},
        cli::text("--trace=", opts.tracePath),
        cli::text("--metrics=", opts.metricsPath),
        cli::text("--report-dir=", opts.reportDir),
        cli::text("--prof-collapse=", opts.profCollapsePath),
    };
    cli::checked("tepicc", kUsage, [&] {
        // A typo'd flag is named, not taken for <prog>.
        for (const char *arg : cli::parse(argc, argv, flags))
            opts.positional.push_back(arg);
        if (opts.positional.size() > 2 && opts.positional[0] == "fetch") {
            using fetch::SchemeClass;
            opts.fetchSchemes = {cli::choice<SchemeClass>(
                "fetch scheme", opts.positional[2],
                {{"base", SchemeClass::kBase},
                 {"compressed", SchemeClass::kCompressed},
                 {"tailored", SchemeClass::kTailored}})};
        }
        if (opts.positional.size() > 2 && opts.positional[0] == "trace" &&
            !cli::readUnsigned(opts.positional[2], UINT_MAX,
                               opts.traceEvents)) {
            throw cli::UsageError("trace wants a non-negative event "
                                  "count, got '" + opts.positional[2] +
                                  "'");
        }
    });
    return opts;
}

core::PipelineConfig
pipelineConfig(const Options &opts)
{
    core::PipelineConfig config;
    config.profileGuided = opts.pgo;
    config.compile.optimise = opts.optimise;
    return config;
}

/** <prog>'s @p request built through the global engine and noted for
 *  finalizeObservability(). */
std::shared_ptr<const core::Artifacts>
build(const Options &opts, core::ArtifactRequest request)
{
    const std::string &prog = opts.positional[1];
    auto built = core::ArtifactEngine::global().build(
        loadSource(prog), request, pipelineConfig(opts), prog);
    g_lastBuild = {prog, built};
    return built;
}

int
cmdRun(const Options &opts)
{
    const auto built = build(opts, core::ArtifactRequest::none());
    const auto &result = built->execution;
    std::printf("exit value: %d\n", result.exitValue);
    std::printf("dynamic: %lu ops, %lu MOPs, %lu blocks\n",
                (unsigned long)result.dynamicOps,
                (unsigned long)result.dynamicMops,
                (unsigned long)result.dynamicBlocks);
    return 0;
}

int
cmdDisasm(const Options &opts)
{
    const auto built = build(opts, core::ArtifactRequest::none());
    std::fputs(built->compiled.program.toString().c_str(), stdout);
    return 0;
}

int
cmdIr(const Options &opts)
{
    auto module = compiler::generateIr(
        compiler::parse(loadSource(opts.positional[1])));
    if (opts.optimise)
        compiler::optimise(module);
    std::fputs(module.toString().c_str(), stdout);
    return 0;
}

int
cmdStats(const Options &opts)
{
    const auto built = build(opts, core::ArtifactRequest::none());
    const auto &compiled = built->compiled;
    const auto &prog = compiled.program;
    std::printf("blocks:            %zu\n", prog.blocks().size());
    std::printf("ops:               %zu\n", prog.opCount());
    std::printf("MOPs:              %zu\n", prog.mopCount());
    std::printf("static ILP:        %.3f ops/MOP\n",
                compiled.schedStats.ilp());
    std::printf("baseline image:    %zu bytes\n",
                prog.baselineBits() / 8);
    std::printf("regalloc:          %u intervals, %u spills, %u "
                "callee-saved regs\n",
                compiled.raStats.intervals, compiled.raStats.spills,
                compiled.raStats.calleeSavedUsed);
    std::printf("data segment:      %zu bytes @0x%x\n",
                compiled.data.bytes.size(), compiled.data.base);
    return 0;
}

int
cmdCompress(const Options &opts)
{
    const auto built = build(opts, core::ArtifactRequest::all());
    const auto &artifacts = *built;
    core::verifyRoundTrips(artifacts);
    support::TextTable table;
    table.setHeader({"scheme", "bytes", "vs base", "decoder T"});
    for (const auto &row : core::summarise(artifacts)) {
        table.addRow({row.name, std::to_string(row.codeBits / 8),
                      support::TextTable::percent(row.ratioVsBase),
                      std::to_string(row.decoderTransistors)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdFetch(const Options &opts)
{
    const auto built = build(opts, core::ArtifactRequest::all());
    const auto &artifacts = *built;
    support::TextTable table;
    table.setHeader({"scheme", "IPC", "ideal", "L1 hit", "pred"});
    for (auto scheme : opts.fetchSchemes) {
        const auto stats = core::runFetch(
            artifacts, scheme, std::nullopt, opts.positional[1]);
        table.addRow({fetch::schemeClassName(scheme),
                      support::TextTable::num(stats.ipc(), 3),
                      support::TextTable::num(stats.idealIpc(), 3),
                      support::TextTable::percent(stats.l1HitRate(), 2),
                      support::TextTable::percent(
                          stats.predictionAccuracy(), 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdVerify(const Options &opts)
{
    // Full self-check: compile, emulate, build every image, verify
    // all round trips, and cross-check the three fetch organisations
    // deliver the identical op stream.
    const auto built = build(opts, core::ArtifactRequest::all());
    const auto &artifacts = *built;
    core::verifyRoundTrips(artifacts);
    std::printf("round trips: ok (base, byte, 6 streams, full, "
                "tailored)\n");
    const auto base =
        core::runFetch(artifacts, fetch::SchemeClass::kBase,
                       std::nullopt, opts.positional[1]);
    const auto comp =
        core::runFetch(artifacts, fetch::SchemeClass::kCompressed,
                       std::nullopt, opts.positional[1]);
    const auto tail =
        core::runFetch(artifacts, fetch::SchemeClass::kTailored,
                       std::nullopt, opts.positional[1]);
    if (base.opsDelivered != comp.opsDelivered ||
        base.opsDelivered != tail.opsDelivered) {
        std::printf("FAIL: fetch organisations disagree on the op "
                    "stream\n");
        return 1;
    }
    std::printf("fetch: ok (%lu ops delivered by all three "
                "organisations)\n",
                (unsigned long)base.opsDelivered);
    // The engine derives the relaid-out program's execution from the
    // profile run; here the program itself runs once more.
    const auto emulated = sim::emulate(artifacts.compiled.program,
                                       artifacts.compiled.data);
    if (emulated != artifacts.execution) {
        std::printf("FAIL: the emulated execution differs from the "
                    "engine's\n");
        return 1;
    }
    std::printf("execution: ok (%lu blocks, emulated and engine "
                "agree)\n",
                (unsigned long)emulated.dynamicBlocks);
    std::printf("exit value: %d\n", emulated.exitValue);
    return 0;
}

int
cmdVerilog(const Options &opts)
{
    // Only the tailored ISA is needed: a selective engine request
    // skips the baseline and Huffman images entirely.
    const auto artifacts = build(
        opts, core::ArtifactRequest{core::ArtifactKind::kTailored});
    std::fputs(artifacts->tailoredIsa().emitVerilog("tailored_decoder")
                   .c_str(), stdout);
    return 0;
}

int
cmdTrace(const Options &opts)
{
    const auto built =
        build(opts, core::ArtifactRequest{core::ArtifactKind::kTrace});
    const auto &compiled = built->compiled;
    const auto &result = built->execution;
    const std::size_t limit =
        std::min<std::size_t>(opts.traceEvents, result.trace.events.size());
    for (std::size_t i = 0; i < limit; ++i) {
        const sim::TraceEvent ev = result.trace.event(i);
        const auto &blk = compiled.program.block(ev.block);
        std::printf("%6zu  B%-5u %-24s -> B%-5u %s\n", i, ev.block,
                    blk.label.c_str(), ev.next,
                    ev.branchTaken ? "taken" : "fallthrough");
    }
    std::printf("... %zu events total\n", result.trace.events.size());
    return 0;
}

int
dispatch(const std::string &cmd, const Options &opts)
{
    static const std::pair<const char *, int (*)(const Options &)>
        kCommands[] = {{"run", cmdRun},           {"disasm", cmdDisasm},
                       {"ir", cmdIr},             {"stats", cmdStats},
                       {"compress", cmdCompress}, {"fetch", cmdFetch},
                       {"verilog", cmdVerilog},   {"verify", cmdVerify},
                       {"trace", cmdTrace}};
    for (const auto &[name, command] : kCommands)
        if (cmd == name)
            return command(opts);
    return usage();
}

/**
 * Write --report-dir=/--metrics=/--prof-collapse=/--trace= outputs
 * after the run; false if any of them could not be written.
 */
bool
finalizeObservability(const Options &opts)
{
    bool ok = true;
    if (opts.reporting()) {
        auto &metrics = support::MetricsRegistry::global();
        core::ArtifactEngine::global().exportMetrics(metrics);
        std::vector<core::SizeReportEntry> artifacts;
        if (g_lastBuild.artifacts != nullptr) {
            artifacts.push_back(core::SizeReportEntry{
                g_lastBuild.name, g_lastBuild.artifacts.get()});
        }
        ok = core::reports::writeReports(opts.reportDir, "tepicc",
                                         artifacts, metrics);
        core::reports::endSessions();
        if (!opts.metricsPath.empty())
            ok = metrics.writeJsonFile(opts.metricsPath) && ok;
    }
    if (!opts.profCollapsePath.empty()) {
        support::prof::stopSampling();
        ok = support::prof::writeCollapsed(opts.profCollapsePath) && ok;
    }
    if (!opts.tracePath.empty())
        ok = support::trace::stop() && ok;
    return ok;
}

/** The command line's work; main() then checks standard output. */
int
run(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    if (opts.positional.empty())
        return usage();
    const std::string &cmd = opts.positional[0];

    if (cmd == "workloads") {
        for (const auto &w : workloads::allWorkloads())
            std::printf("%-10s %s\n", w.name.c_str(),
                        w.description.c_str());
        return 0;
    }
    if (opts.positional.size() < 2)
        return usage();

    // CACHE and HOT recording costs the fetch sims real time, so the
    // sessions run only when their reports or metrics were asked for.
    if (opts.reporting())
        core::reports::startSessions(0);
    if (!opts.profCollapsePath.empty())
        support::prof::startSampling();
    if (!opts.tracePath.empty())
        support::trace::start(opts.tracePath);
    int status = 0;
    try {
        status = dispatch(cmd, opts);
    } catch (const support::FatalError &error) {
        // The input was rejected. Name the input, not the library
        // source line that noticed.
        std::fprintf(stderr, "%s: error: %s\n",
                     opts.positional[1].c_str(), error.message().c_str());
        status = 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "tepicc: internal error on %s: %s\n",
                     opts.positional[1].c_str(), error.what());
        status = 1;
    }
    if (!finalizeObservability(opts))
        return 1;
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    return support::stdoutStatus("tepicc", run(argc, argv));
}
