#include "support/json_writer.hh"

#include <cstdio>

#include "support/logging.hh"

namespace tepic::support {

std::string
jsonQuote(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (unsigned char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    out += '"';
    return out;
}

void
JsonWriter::separate()
{
    Frame &frame = stack_.back();
    if (!frame.empty)
        out_ += frame.layout == kBlock ? "," : ", ";
    if (frame.layout == kBlock) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
    frame.empty = false;
}

void
JsonWriter::beginValue()
{
    if (stack_.empty()) {
        TEPIC_ASSERT(!rooted_, "JsonWriter: a second top-level value");
        rooted_ = true;
    } else if (stack_.back().close == '}') {
        TEPIC_ASSERT(keyPending_,
                     "JsonWriter: an object member without a key");
        keyPending_ = false;
    } else {
        separate();
    }
}

JsonWriter &
JsonWriter::open(char bracket, Layout layout)
{
    beginValue();
    out_ += bracket;
    stack_.push_back({bracket == '{' ? '}' : ']', layout});
    return *this;
}

JsonWriter &
JsonWriter::scalar(std::string_view text)
{
    beginValue();
    out_ += text;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    TEPIC_ASSERT(!stack_.empty() && stack_.back().close == '}',
                 "JsonWriter: key '", name, "' outside an object");
    TEPIC_ASSERT(!keyPending_, "JsonWriter: key '", name,
                 "' follows a key without its value");
    separate();
    out_ += jsonQuote(name);
    out_ += ": ";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    TEPIC_ASSERT(!stack_.empty(), "JsonWriter: end() with nothing open");
    TEPIC_ASSERT(!keyPending_, "JsonWriter: end() after a key");
    const Frame frame = stack_.back();
    stack_.pop_back();
    if (frame.layout == kBlock && !frame.empty) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
    out_ += frame.close;
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    char buf[40];
    const int length = std::snprintf(buf, sizeof(buf), "%.12g", number);
    return scalar({buf, std::size_t(length)});
}

std::string
JsonWriter::take()
{
    TEPIC_ASSERT(stack_.empty(), "JsonWriter: take() with ",
                 stack_.size(), " container(s) still open");
    TEPIC_ASSERT(rooted_, "JsonWriter: take() before any value");
    out_ += '\n';
    return std::move(out_);
}

} // namespace tepic::support
