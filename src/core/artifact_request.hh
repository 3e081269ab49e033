/**
 * @file
 * Request sets for the artifact engine: callers name exactly the
 * artefacts they consume and pay for nothing else.
 *
 * A request is a small set of ArtifactKind values. kBase .. kTailored
 * select encoded images, kAtt asks for the Address Translation Table
 * of the Full image (Figure 7), kTrace controls whether the
 * emulator keeps the dynamic block trace (required by the fetch and
 * power simulations, dead weight for pure size studies), and
 * kDecoder builds the codec::Decoder for each of the three fetch
 * organisations (implying their images) so runFetch consumers get
 * memoized decoders instead of constructing their own.
 */

#ifndef TEPIC_CORE_ARTIFACT_REQUEST_HH
#define TEPIC_CORE_ARTIFACT_REQUEST_HH

#include <initializer_list>
#include <string>

namespace tepic::core {

enum class ArtifactKind : unsigned {
    kBase = 0,      ///< baseline 40-bit image
    kByte,          ///< Huffman, byte alphabet
    kStream,        ///< Huffman, all six stream configurations
    kFull,          ///< Huffman, whole-op alphabet
    kTailored,      ///< tailored ISA + image
    kAtt,           ///< ATT over the Full image (implies kFull)
    kTrace,         ///< dynamic block trace from the emulator
    kDecoder,       ///< codec::Decoders for base/full/tailored
                    ///< (implies those images)
};

inline constexpr unsigned kNumArtifactKinds = 8;

const char *artifactKindName(ArtifactKind kind);

/** An immutable set of ArtifactKind values. */
class ArtifactRequest
{
  public:
    constexpr ArtifactRequest() = default;

    constexpr
    ArtifactRequest(std::initializer_list<ArtifactKind> kinds)
    {
        for (ArtifactKind kind : kinds)
            bits_ |= bit(kind);
    }

    /** Every kind, trace included. */
    static constexpr ArtifactRequest
    all()
    {
        ArtifactRequest r;
        r.bits_ = (1u << kNumArtifactKinds) - 1;
        return r;
    }

    /** Compile + emulate only; no images at all. */
    static constexpr ArtifactRequest none() { return {}; }

    constexpr bool
    has(ArtifactKind kind) const
    {
        return (bits_ & bit(kind)) != 0;
    }

    constexpr ArtifactRequest
    with(ArtifactKind kind) const
    {
        ArtifactRequest r = *this;
        r.bits_ |= bit(kind);
        return r;
    }

    constexpr ArtifactRequest
    without(ArtifactKind kind) const
    {
        ArtifactRequest r = *this;
        r.bits_ &= ~bit(kind);
        return r;
    }

    constexpr ArtifactRequest
    operator|(ArtifactRequest other) const
    {
        ArtifactRequest r = *this;
        r.bits_ |= other.bits_;
        return r;
    }

    /** True when every kind in @p other is also in this set. */
    constexpr bool
    contains(ArtifactRequest other) const
    {
        return (bits_ & other.bits_) == other.bits_;
    }

    constexpr bool
    operator==(const ArtifactRequest &other) const = default;

    constexpr bool empty() const { return bits_ == 0; }

    /**
     * Close over implied dependencies (kAtt needs the Full image it
     * is built from; kDecoder needs the three fetch-scheme images it
     * decodes). The engine keys its cache on normalized sets.
     */
    constexpr ArtifactRequest
    normalized() const
    {
        ArtifactRequest r = *this;
        if (r.has(ArtifactKind::kAtt))
            r.bits_ |= bit(ArtifactKind::kFull);
        if (r.has(ArtifactKind::kDecoder)) {
            r.bits_ |= bit(ArtifactKind::kBase);
            r.bits_ |= bit(ArtifactKind::kFull);
            r.bits_ |= bit(ArtifactKind::kTailored);
        }
        return r;
    }

    /** "base,full,trace" — the inverse of parse(). */
    std::string toString() const;

    /**
     * Parse a comma-separated kind list ("base,stream,trace"); the
     * names are the artifactKindName() strings plus "all" and "none".
     * Fatal on an unknown name.
     */
    static ArtifactRequest parse(const std::string &csv);

  private:
    static constexpr unsigned
    bit(ArtifactKind kind)
    {
        return 1u << unsigned(kind);
    }

    unsigned bits_ = 0;
};

} // namespace tepic::core

#endif // TEPIC_CORE_ARTIFACT_REQUEST_HH
