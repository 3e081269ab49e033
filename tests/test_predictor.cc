/**
 * @file
 * Direction-predictor tests: bimodal behaviour through the ATB,
 * gshare pattern learning, PAs per-address history, and the fetch-sim
 * integration (alternating patterns that defeat 2-bit counters but
 * not history-based predictors).
 */

#include <gtest/gtest.h>

#include "compiler/driver.hh"
#include "fetch/fetch_sim.hh"
#include "fetch/predictor.hh"
#include "isa/baseline.hh"
#include "sim/emulator.hh"

namespace {

using namespace tepic;
using fetch::DirectionPredictor;
using fetch::PredictorConfig;
using fetch::PredictorKind;

TEST(Predictor, Names)
{
    EXPECT_STREQ(fetch::predictorKindName(PredictorKind::kBimodal),
                 "2bit");
    EXPECT_STREQ(fetch::predictorKindName(PredictorKind::kGshare),
                 "gshare");
    EXPECT_STREQ(fetch::predictorKindName(PredictorKind::kPas), "PAs");
}

TEST(Predictor, BimodalUsesEntryCounter)
{
    PredictorConfig config;
    config.kind = PredictorKind::kBimodal;
    DirectionPredictor pred(config);
    EXPECT_FALSE(pred.predictTaken(5, 0));
    EXPECT_FALSE(pred.predictTaken(5, 1));
    EXPECT_TRUE(pred.predictTaken(5, 2));
    EXPECT_TRUE(pred.predictTaken(5, 3));
}

TEST(Predictor, GshareLearnsAlternation)
{
    // Pattern T,N,T,N... defeats a 2-bit counter (hovers around the
    // threshold) but is perfectly predictable from 1 history bit.
    PredictorConfig config;
    config.kind = PredictorKind::kGshare;
    DirectionPredictor pred(config);

    const isa::BlockId block = 17;
    // Warm up.
    for (int i = 0; i < 64; ++i)
        pred.update(block, i % 2 == 0);
    // Measure.
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        const bool actual = i % 2 == 0;
        if (pred.predictTaken(block, 1) == actual)
            ++correct;
        pred.update(block, actual);
    }
    EXPECT_GT(correct, 95);
}

TEST(Predictor, PasSeparatesBlocks)
{
    // Two blocks with opposite constant behaviour: per-address
    // history keeps them apart.
    PredictorConfig config;
    config.kind = PredictorKind::kPas;
    DirectionPredictor pred(config);
    for (int i = 0; i < 32; ++i) {
        pred.update(1, true);
        pred.update(2, false);
    }
    EXPECT_TRUE(pred.predictTaken(1, 1));
    EXPECT_FALSE(pred.predictTaken(2, 1));
}

TEST(Predictor, PasLearnsPeriodicPattern)
{
    // Period-3 pattern T,T,N — invisible to a 2-bit counter, clear
    // with >= 2 bits of local history.
    PredictorConfig config;
    config.kind = PredictorKind::kPas;
    DirectionPredictor pred(config);
    const isa::BlockId block = 9;
    for (int i = 0; i < 120; ++i)
        pred.update(block, i % 3 != 2);
    int correct = 0;
    for (int i = 0; i < 99; ++i) {
        const bool actual = i % 3 != 2;
        if (pred.predictTaken(block, 1) == actual)
            ++correct;
        pred.update(block, actual);
    }
    EXPECT_GT(correct, 90);
}

TEST(Predictor, FetchSimAlternatingBranchBenefitsFromHistory)
{
    // A loop whose branch alternates taken/not-taken every iteration:
    // gshare should predict it nearly perfectly; 2-bit should not.
    auto compiled = compiler::compileSource(R"(
        func main(): int {
            var s = 0;
            for (var i = 0; i < 4000; i = i + 1) {
                if (i % 2 == 0) { s = s + 3; } else { s = s - 1; }
            }
            return s;
        }
    )");
    auto emu = sim::emulate(compiled.program, compiled.data);
    const auto image = isa::buildBaselineImage(compiled.program);

    auto run = [&](PredictorKind kind) {
        auto config =
            fetch::FetchConfig::paper(fetch::SchemeClass::kBase);
        config.predictor.kind = kind;
        return fetch::simulateFetch(image, compiled.program,
                                    emu.trace, config);
    };
    const auto bimodal = run(PredictorKind::kBimodal);
    const auto gshare = run(PredictorKind::kGshare);
    EXPECT_GT(gshare.predictionAccuracy(),
              bimodal.predictionAccuracy() + 0.05);
    EXPECT_GT(gshare.ipc(), bimodal.ipc());
    EXPECT_EQ(compiled.program.blocks().size() > 0, true);
    EXPECT_EQ(emu.exitValue, 4000 / 2 * 3 - 4000 / 2);
}

} // namespace
