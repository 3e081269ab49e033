/**
 * @file
 * The one JSON writer every report (BENCH metrics, PROF, SCHED, CACHE,
 * HOT, SIZE, SWEEP) is rendered through: open a container with
 * object()/array(), name each object member with key(), write scalars
 * with value(), close with end(), and take() the newline-terminated
 * document.
 *
 * One layout rule: a block container (the default) puts one member per
 * line, indented two spaces per open container; an inline container
 * joins its members with ", ". Members are written as "key": value,
 * integers exactly and every double as %.12g. Misuse (a value without
 * its key inside an object, a key outside one, an unbalanced end(),
 * take() with a container open) panics.
 */

#ifndef TEPIC_SUPPORT_JSON_WRITER_HH
#define TEPIC_SUPPORT_JSON_WRITER_HH

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tepic::support {

/** JSON string literal (quotes + escapes) for @p text. */
std::string jsonQuote(std::string_view text);

class JsonWriter
{
  public:
    enum Layout { kBlock, kInline };

    JsonWriter &object(Layout layout = kBlock) { return open('{', layout); }
    JsonWriter &array(Layout layout = kBlock) { return open('[', layout); }
    /** Name the next member of the innermost container, an object. */
    JsonWriter &key(std::string_view name);
    /** Close the innermost container. */
    JsonWriter &end();

    /** Any integer type (int64 and uint64 included), exactly. */
    template <std::integral Int>
    JsonWriter &
    value(Int number)
    {
        char buf[24];
        return scalar(
            {buf, std::to_chars(buf, buf + sizeof(buf), number).ptr});
    }
    JsonWriter &value(double number);
    JsonWriter &value(bool flag) { return scalar(flag ? "true" : "false"); }
    JsonWriter &value(std::string_view text)
    {
        return scalar(jsonQuote(text));
    }
    JsonWriter &value(const char *text)
    {
        return value(std::string_view(text));
    }
    JsonWriter &value(std::nullptr_t) { return scalar("null"); }

    /** The finished document, newline-terminated; the writer is spent. */
    std::string take();

  private:
    struct Frame
    {
        char close;  ///< '}' or ']'
        Layout layout;
        bool empty = true;
    };

    /** Separator and indentation before the top frame's next member. */
    void separate();
    /** Check that a value may start here; separate array members. */
    void beginValue();
    JsonWriter &open(char bracket, Layout layout);
    JsonWriter &scalar(std::string_view text);

    std::string out_;
    std::vector<Frame> stack_;
    bool keyPending_ = false;
    bool rooted_ = false;  ///< the top-level value has begun
};

} // namespace tepic::support

#endif // TEPIC_SUPPORT_JSON_WRITER_HH
