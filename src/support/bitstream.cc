#include "support/bitstream.hh"

#include "support/logging.hh"

namespace tepic::support {

void
BitWriter::writeBits(std::uint64_t value, unsigned width)
{
    TEPIC_ASSERT(width <= 64, "bit field too wide: ", width);
    if (width < 64)
        TEPIC_ASSERT((value >> width) == 0,
                     "value ", value, " does not fit in ", width, " bits");

    // Fill the open byte's free low bits from the field's top, one
    // chunk of up to 8 bits per step.
    while (width > 0) {
        const unsigned used = unsigned(bitSize_ % 8);
        if (used == 0)
            bytes_.push_back(0);
        const unsigned room = 8 - used;
        const unsigned take = width < room ? width : room;
        width -= take;
        const unsigned chunk =
            unsigned(value >> width) & ((1u << take) - 1);
        bytes_.back() |= std::uint8_t(chunk << (room - take));
        bitSize_ += take;
    }
}

void
BitWriter::alignToByte()
{
    writeBits(0, unsigned((8 - bitSize_ % 8) % 8));
}

std::vector<std::uint8_t>
BitWriter::takeBytes()
{
    bitSize_ = 0;
    return std::move(bytes_);
}

std::uint64_t
BitReader::readBits(unsigned width)
{
    TEPIC_ASSERT(width <= 64, "bit field too wide: ", width);
    TEPIC_ASSERT(pos_ + width <= bitSize_,
                 "bitstream overrun: pos=", pos_, " width=", width,
                 " size=", bitSize_);

    std::uint64_t value = 0;
    for (unsigned i = 0; i < width; ++i) {
        const std::size_t byte_idx = pos_ / 8;
        const unsigned bit_idx = 7 - (pos_ % 8);
        value = (value << 1) | ((data_[byte_idx] >> bit_idx) & 1);
        ++pos_;
    }
    return value;
}

void
BitReader::seek(std::size_t bit_pos)
{
    TEPIC_ASSERT(bit_pos <= bitSize_, "seek past end: ", bit_pos);
    pos_ = bit_pos;
}

} // namespace tepic::support
