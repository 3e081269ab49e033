#include "fetch/predictor.hh"

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
    if (config.kind == PredictorKind::kGshare) {
        pht_.assign(std::size_t(1) << kGshareHistoryBits, 1);
    } else if (config.kind == PredictorKind::kPas) {
        historyRegs_.assign(kPasHistoryRegs, 0);
        patternTable_.assign(std::size_t(1) << kPasHistoryBits, 1);
    }
}

} // namespace tepic::fetch
