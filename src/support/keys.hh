/**
 * @file
 * Shared shape/geometry re-keying for session stores and sweep keys.
 *
 * Several observability layers key records apart when two runs of the
 * same (workload, scheme) pair used different structural shapes — the
 * cache store re-keys geometry sweeps as "<workload>@<sets>x<ways>x
 * <lineBytes>", the hot store re-keys "<workload>@B<blocks>xE<epochs>",
 * and the design-space sweep builds whole configuration keys from the
 * same vocabulary. shapeSuffix() is the one spelling of that format:
 * "@" then the dimensions joined by "x", each dimension an optional
 * tag letter followed by its decimal value. Key stability is a tested
 * contract (tests/test_support.cc) because the suffixes appear in
 * committed report baselines.
 */

#ifndef TEPIC_SUPPORT_KEYS_HH
#define TEPIC_SUPPORT_KEYS_HH

#include <cstdint>
#include <initializer_list>
#include <string>

namespace tepic::support {

/** One dimension of a shape key: optional tag letter(s) + value. */
struct ShapeDim
{
    const char *tag;  ///< "" for untagged dimensions
    std::uint64_t value;
};

/**
 * Render "@<tag0><v0>x<tag1><v1>..." — the canonical re-keying
 * suffix appended to a workload label when records of mismatching
 * shape must not merge.
 */
inline std::string
shapeSuffix(std::initializer_list<ShapeDim> dims)
{
    std::string out = "@";
    bool first = true;
    for (const auto &dim : dims) {
        if (!first)
            out += "x";
        first = false;
        out += dim.tag;
        out += std::to_string(dim.value);
    }
    return out;
}

} // namespace tepic::support

#endif // TEPIC_SUPPORT_KEYS_HH
