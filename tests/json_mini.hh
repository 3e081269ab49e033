/**
 * @file
 * Minimal recursive-descent JSON parser for tests that round-trip the
 * observability outputs (the reports support::JsonWriter renders and
 * Chrome trace-event files). Supports the full value grammar those
 * produce: objects, arrays, strings with the escapes jsonQuote()
 * writes, numbers, bools and null. Throws std::runtime_error on malformed input — a test
 * failure, not a recoverable condition.
 */

#ifndef TEPIC_TESTS_JSON_MINI_HH
#define TEPIC_TESTS_JSON_MINI_HH

#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace tepic::testjson {

struct Value
{
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNull() const { return kind == Kind::kNull; }
    bool isObject() const { return kind == Kind::kObject; }
    bool isArray() const { return kind == Kind::kArray; }
    bool isString() const { return kind == Kind::kString; }
    bool isNumber() const { return kind == Kind::kNumber; }

    bool
    has(const std::string &key) const
    {
        return isObject() && object.count(key) > 0;
    }

    /** Object member access; throws on a missing key. */
    const Value &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (!isObject() || it == object.end())
            throw std::runtime_error("json: missing key '" + key + "'");
        return it->second;
    }
};

namespace detail {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parse()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        throw std::runtime_error("json: " + std::string(what) +
                                 " at offset " + std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (consumeLiteral("true")) {
            Value v;
            v.kind = Value::Kind::kBool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            Value v;
            v.kind = Value::Kind::kBool;
            return v;
        }
        if (consumeLiteral("null"))
            return Value{};
        return parseNumber();
    }

    Value
    parseObject()
    {
        Value v;
        v.kind = Value::Kind::kObject;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            Value key = parseString();
            skipWs();
            expect(':');
            v.object[key.str] = parseValue();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    parseArray()
    {
        Value v;
        v.kind = Value::Kind::kArray;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    Value
    parseString()
    {
        Value v;
        v.kind = Value::Kind::kString;
        expect('"');
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.str += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': v.str += '"'; break;
              case '\\': v.str += '\\'; break;
              case '/': v.str += '/'; break;
              case 'n': v.str += '\n'; break;
              case 'r': v.str += '\r'; break;
              case 't': v.str += '\t'; break;
              case 'b': v.str += '\b'; break;
              case 'f': v.str += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("short \\u escape");
                const unsigned long code = std::strtoul(
                    text_.substr(pos_, 4).c_str(), nullptr, 16);
                pos_ += 4;
                // The emitters only escape control characters, so a
                // plain one-byte append suffices for the round trip.
                v.str += char(code & 0xff);
                break;
              }
              default: fail("bad escape");
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t begin = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == begin)
            fail("expected a value");
        Value v;
        v.kind = Value::Kind::kNumber;
        v.number = std::strtod(text_.substr(begin, pos_ - begin).c_str(),
                               nullptr);
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace detail

inline Value
parse(const std::string &text)
{
    return detail::Parser(text).parse();
}

} // namespace tepic::testjson

#endif // TEPIC_TESTS_JSON_MINI_HH
