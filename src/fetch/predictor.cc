#include "fetch/predictor.hh"

#include "support/logging.hh"

namespace tepic::fetch {

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::kBimodal: return "2bit";
      case PredictorKind::kGshare: return "gshare";
      case PredictorKind::kPas: return "PAs";
    }
    return "?";
}

DirectionPredictor::DirectionPredictor(const PredictorConfig &config)
    : config_(config)
{
    TEPIC_ASSERT(config.gshareHistoryBits >= 1 &&
                 config.gshareHistoryBits <= 20,
                 "bad gshare history width");
    TEPIC_ASSERT(config.pasHistoryBits >= 1 &&
                 config.pasHistoryBits <= 16,
                 "bad PAs history width");
    if (config.kind == PredictorKind::kGshare) {
        pht_.assign(std::size_t(1) << config.gshareHistoryBits, 1);
    } else if (config.kind == PredictorKind::kPas) {
        historyRegs_.assign(kPasHistoryRegs, 0);
        patternTable_.assign(std::size_t(1) << config.pasHistoryBits,
                             1);
    }
}

} // namespace tepic::fetch
