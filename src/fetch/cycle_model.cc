#include "fetch/cycle_model.hh"

namespace tepic::fetch {

const char *
schemeClassName(SchemeClass scheme)
{
    switch (scheme) {
      case SchemeClass::kBase: return "base";
      case SchemeClass::kTailored: return "tailored";
      case SchemeClass::kCompressed: return "compressed";
    }
    return "?";
}

std::uint64_t
blockCycles(SchemeClass scheme, const FetchEvent &event,
            std::uint32_t n_mops, std::uint32_t n_ops,
            std::uint32_t n_lines, const CyclePenalties &p)
{
    // All three datapaths stream one MOP per cycle once flowing; the
    // Huffman decompressors sit in the pipeline (one per issue slot,
    // §3.5/§4), so they cost latency on redirects and refills, never
    // steady-state throughput. Everything beyond the stream is stall,
    // decomposed exactly by stallBreakdown().
    return n_mops +
           stallBreakdown(scheme, event, n_mops, n_ops, n_lines, p)
               .total();
}

} // namespace tepic::fetch
