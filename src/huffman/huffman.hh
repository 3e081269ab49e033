/**
 * @file
 * Canonical, length-limited Huffman coding.
 *
 * The paper compresses with Huffman [2] and notes that over-long codes
 * are incompatible with the IFetch hardware, handling them with a
 * bounded-Huffman variant (§2.2). This implementation bounds code
 * length up front with the package-merge algorithm (optimal
 * length-limited codes), then assigns canonical codes so the decoder
 * is table-driven — the form the hardware-decoder cost model of §3.5
 * assumes.
 *
 * Symbols are opaque 64-bit values; the alphabet adapters in
 * src/schemes decide what a symbol is (a byte, an instruction field
 * slice, or a whole 40-bit op).
 */

#ifndef TEPIC_HUFFMAN_HUFFMAN_HH
#define TEPIC_HUFFMAN_HUFFMAN_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "support/bitstream.hh"
#include "support/stats.hh"

namespace tepic::huffman {

/** Symbol frequency histogram. */
class SymbolHistogram
{
  public:
    void add(std::uint64_t symbol, std::uint64_t count = 1)
    {
        counts_[symbol] += count;
        total_ += count;
    }

    const std::map<std::uint64_t, std::uint64_t> &counts() const
    {
        return counts_;
    }

    std::size_t distinctSymbols() const { return counts_.size(); }

    /** Sum of all counts (maintained incrementally by add()). */
    std::uint64_t totalCount() const { return total_; }

    /** Shannon entropy in bits per symbol. */
    double entropyBits() const;

  private:
    std::map<std::uint64_t, std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** One assigned code. */
struct CodeEntry
{
    std::uint64_t symbol;
    unsigned length;        ///< code length in bits
    std::uint64_t code;     ///< canonical code, MSB-first
};

/**
 * A canonical Huffman code table with encode and decode support.
 * Build once from a histogram; encoding and decoding are then
 * symmetrical over BitWriter/BitReader.
 */
class CodeTable
{
  public:
    /**
     * Build a length-limited canonical code for @p hist.
     * @p max_length bounds every code (package-merge); it must satisfy
     * 2^max_length >= number of distinct symbols.
     */
    static CodeTable build(const SymbolHistogram &hist,
                           unsigned max_length = 16);

    const std::vector<CodeEntry> &entries() const { return entries_; }

    /** Longest assigned code (the `n` of the decoder cost model). */
    unsigned maxCodeLength() const { return maxLength_; }

    /** Number of dictionary entries (the `k` of the cost model). */
    std::size_t size() const { return entries_.size(); }

    /**
     * Append the code for @p symbol and return its length in bits
     * (one table lookup). Fatal if symbol is unknown.
     */
    unsigned encode(std::uint64_t symbol, support::BitWriter &writer) const;

    /** Code length for @p symbol (encoded size accounting). */
    unsigned codeLength(std::uint64_t symbol) const;

    /**
     * Decode one symbol from @p reader.
     *
     * Fast path: peek lutBits() bits and index the first-level lookup
     * table built at build() time — one load resolves any code of
     * length <= lutBits() (the window slot stores the entry index and
     * the true code length to consume). Codes longer than lutBits()
     * land in overflow slots and fall back to the length-indexed
     * canonical walk, resumed past the already-peeked prefix. The LUT
     * is a host-side decode accelerator only; the §3.5 hardware
     * decoder cost model still sees maxCodeLength()/size().
     */
    std::uint64_t
    decode(support::BitReader &reader) const
    {
        const auto window =
            std::size_t(reader.peekBits(lutBits_));
        const LutEntry entry = lut_[window];
        if (entry.length != 0) {
            reader.skip(entry.length);
            return entries_[entry.index].symbol;
        }
        return decodeOverflow(reader);
    }

    /**
     * Reference decoder: the per-bit canonical-tables walk the LUT
     * replaced. Kept public so differential tests can assert the two
     * agree symbol-for-symbol on any table.
     */
    std::uint64_t decodeReference(support::BitReader &reader) const;

    /** First-level decode window width: min(maxCodeLength(), 11). */
    unsigned lutBits() const { return lutBits_; }

    /** Total encoded bits for a histogram under this table. */
    std::uint64_t encodedBits(const SymbolHistogram &hist) const;

    /**
     * Distribution of assigned code lengths: bin L holds the number
     * of dictionary symbols with an L-bit code. This is the tree
     * shape that drives the §3.5 decoder cost model (exported as the
     * size.<alphabet>.codelen metrics histogram).
     */
    support::Histogram lengthHistogram() const;

  private:
    /** One first-level LUT slot: resolved entry + code length. */
    struct LutEntry
    {
        std::uint32_t index = 0;  ///< entries_ index of the match
        std::uint8_t length = 0;  ///< code length; 0 = overflow slot
    };

    /** Window width cap: 2^11 slots = at most 2048 LutEntry per table. */
    static constexpr unsigned kMaxLutBits = 11;

    std::vector<CodeEntry> entries_;  ///< canonical order
    std::unordered_map<std::uint64_t, std::size_t> index_;
    unsigned maxLength_ = 0;
    unsigned lutBits_ = 0;

    // Canonical decode tables, indexed by code length (1-based).
    std::vector<std::uint64_t> firstCode_;   ///< first code of length L
    std::vector<std::uint64_t> firstIndex_;  ///< entries_ index of it
    std::vector<std::uint64_t> countAt_;     ///< #codes of length L
    std::vector<LutEntry> lut_;              ///< 2^lutBits_ slots

    void buildDecodeTables();
    std::uint64_t decodeOverflow(support::BitReader &reader) const;
};

/**
 * Compute optimal length-limited code lengths (package-merge).
 * Returns lengths parallel to the histogram's symbol order.
 * Exposed separately for property tests against plain Huffman.
 */
std::vector<unsigned>
packageMergeLengths(const std::vector<std::uint64_t> &freqs,
                    unsigned max_length);

} // namespace tepic::huffman

#endif // TEPIC_HUFFMAN_HUFFMAN_HH
