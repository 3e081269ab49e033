/**
 * @file
 * Hierarchical size-provenance ledger: where did every bit of an
 * encoded artifact go?
 *
 * A SizeLedger attributes the bits of one artifact (a code image, the
 * ATT ROM, ...) to a tree of named causes. Leaves are slash-separated
 * paths ("code/payload", "header/opcode", "align_pad"); interior
 * nodes exist implicitly and their size is the sum of their children,
 * treemap-style. The contract mirrors the stall-cause attribution of
 * the fetch side:
 *
 *   tiling       the leaf bits sum to the artifact's total size
 *                EXACTLY — no bit is unattributed, none is counted
 *                twice (assertTiles() enforces this everywhere a
 *                ledger is produced);
 *   determinism  a ledger is a pure function of the encoded artifact,
 *                so it is bit-identical for any --jobs value;
 *   merging      merge() sums per leaf and is associative and
 *                commutative (the Histogram::merge discipline), so
 *                per-workload ledgers fold into suite aggregates in
 *                any grouping.
 *
 * Export targets:
 *   exportTo()   MetricsRegistry counters "<prefix>.<path>" with '/'
 *                replaced by '.', plus "<prefix>.total_bits" — this
 *                lands in the deterministic counters section, so the
 *                regression gate covers size provenance for free;
 *   writeJson()  a nested treemap object for SIZE_*.json artifacts
 *                (schema "tepic-size-v1", assembled by core).
 */

#ifndef TEPIC_SUPPORT_SIZE_LEDGER_HH
#define TEPIC_SUPPORT_SIZE_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace tepic::support {

class JsonWriter;
class MetricsRegistry;

class SizeLedger
{
  public:
    /**
     * Charge @p bits to the leaf at @p path (slash-separated; path
     * segments must be non-empty). Zero-bit charges are dropped so
     * the leaf set stays minimal and data-driven.
     */
    void addBits(std::string_view path, std::uint64_t bits);

    /** Fold @p other in, per leaf. Associative and commutative. */
    void merge(const SizeLedger &other);

    /** Sum of all leaves — must equal the artifact size (tiling). */
    std::uint64_t totalBits() const;

    /** Bits charged to one leaf (0 when absent). */
    std::uint64_t leafBits(std::string_view path) const;

    const std::map<std::string, std::uint64_t, std::less<>> &
    leaves() const
    {
        return leaves_;
    }

    bool empty() const { return leaves_.empty(); }
    void clear() { leaves_.clear(); }

    /**
     * Fatal unless totalBits() == expected_bits. @p what names the
     * artifact in the failure message. Every producer calls this
     * right after charging — the tiling invariant is structural, not
     * a test-only property.
     */
    void assertTiles(std::uint64_t expected_bits,
                     std::string_view what) const;

    /**
     * Export each leaf as a counter "<prefix>.<path>" ('/' becomes
     * '.') plus "<prefix>.total_bits". Leaves may not be named
     * "total_bits" at top level (fatal).
     */
    void exportTo(MetricsRegistry &out, std::string_view prefix) const;

    /**
     * Write as a nested JSON object: interior path segments become
     * objects, leaves become numbers (bits). Deterministic: keys in
     * sorted order.
     */
    void writeJson(JsonWriter &json) const;

  private:
    std::map<std::string, std::uint64_t, std::less<>> leaves_;
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_SIZE_LEDGER_HH
