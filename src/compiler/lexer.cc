#include "compiler/lexer.hh"

#include <cctype>
#include <charconv>
#include <system_error>
#include <unordered_map>

#include "support/logging.hh"

namespace tepic::compiler {

const char *
tokKindName(TokKind kind)
{
    switch (kind) {
      case TokKind::kEof: return "<eof>";
      case TokKind::kIdent: return "identifier";
      case TokKind::kIntLit: return "integer literal";
      case TokKind::kFloatLit: return "float literal";
      case TokKind::kKwFunc: return "'func'";
      case TokKind::kKwVar: return "'var'";
      case TokKind::kKwIf: return "'if'";
      case TokKind::kKwElse: return "'else'";
      case TokKind::kKwWhile: return "'while'";
      case TokKind::kKwFor: return "'for'";
      case TokKind::kKwReturn: return "'return'";
      case TokKind::kKwBreak: return "'break'";
      case TokKind::kKwContinue: return "'continue'";
      case TokKind::kKwInt: return "'int'";
      case TokKind::kKwFloat: return "'float'";
      case TokKind::kLParen: return "'('";
      case TokKind::kRParen: return "')'";
      case TokKind::kLBrace: return "'{'";
      case TokKind::kRBrace: return "'}'";
      case TokKind::kLBracket: return "'['";
      case TokKind::kRBracket: return "']'";
      case TokKind::kComma: return "','";
      case TokKind::kSemi: return "';'";
      case TokKind::kColon: return "':'";
      case TokKind::kAssign: return "'='";
      case TokKind::kPlus: return "'+'";
      case TokKind::kMinus: return "'-'";
      case TokKind::kStar: return "'*'";
      case TokKind::kSlash: return "'/'";
      case TokKind::kPercent: return "'%'";
      case TokKind::kAmp: return "'&'";
      case TokKind::kPipe: return "'|'";
      case TokKind::kCaret: return "'^'";
      case TokKind::kTilde: return "'~'";
      case TokKind::kBang: return "'!'";
      case TokKind::kShl: return "'<<'";
      case TokKind::kShr: return "'>>'";
      case TokKind::kEq: return "'=='";
      case TokKind::kNe: return "'!='";
      case TokKind::kLt: return "'<'";
      case TokKind::kLe: return "'<='";
      case TokKind::kGt: return "'>'";
      case TokKind::kGe: return "'>='";
      case TokKind::kAndAnd: return "'&&'";
      case TokKind::kOrOr: return "'||'";
    }
    return "?";
}

namespace {

const std::unordered_map<std::string, TokKind> kKeywords = {
    {"func", TokKind::kKwFunc},
    {"var", TokKind::kKwVar},
    {"if", TokKind::kKwIf},
    {"else", TokKind::kKwElse},
    {"while", TokKind::kKwWhile},
    {"for", TokKind::kKwFor},
    {"return", TokKind::kKwReturn},
    {"break", TokKind::kKwBreak},
    {"continue", TokKind::kKwContinue},
    {"int", TokKind::kKwInt},
    {"float", TokKind::kKwFloat},
};

/**
 * The scanned digits @p text of a @p kind ("integer" or "float")
 * literal as a Value, parsed in @p base... (none for a float); fatal
 * when the value does not fit.
 */
template <typename Value, typename... Base>
Value
parseLiteral(const std::string &text, const char *kind, unsigned line,
             unsigned col, Base... base)
{
    Value value{};
    const char *end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, value, base...);
    if (parsed.ec != std::errc() || parsed.ptr != end)
        TEPIC_FATAL(kind, " literal out of range at line ", line, " col ",
                    col);
    return value;
}

} // namespace

std::vector<Token>
lex(const std::string &source)
{
    std::vector<Token> tokens;
    unsigned line = 1;
    unsigned col = 1;
    std::size_t i = 0;
    const std::size_t n = source.size();

    auto peek = [&](std::size_t off = 0) -> char {
        return i + off < n ? source[i + off] : '\0';
    };
    auto advance = [&]() {
        if (source[i] == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
        ++i;
    };
    auto push = [&](TokKind kind, unsigned tok_line, unsigned tok_col) {
        Token tok;
        tok.kind = kind;
        tok.line = tok_line;
        tok.col = tok_col;
        tokens.push_back(std::move(tok));
    };

    while (i < n) {
        const char c = peek();
        // Whitespace.
        if (std::isspace(static_cast<unsigned char>(c))) {
            advance();
            continue;
        }
        // Comments.
        if (c == '/' && peek(1) == '/') {
            while (i < n && peek() != '\n')
                advance();
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            const unsigned start_line = line;
            advance();
            advance();
            while (i < n && !(peek() == '*' && peek(1) == '/'))
                advance();
            if (i >= n)
                TEPIC_FATAL("unterminated comment starting at line ",
                            start_line);
            advance();
            advance();
            continue;
        }

        const unsigned tok_line = line;
        const unsigned tok_col = col;

        // Identifiers / keywords.
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::string text;
            while (i < n &&
                   (std::isalnum(static_cast<unsigned char>(peek())) ||
                    peek() == '_')) {
                text += peek();
                advance();
            }
            auto it = kKeywords.find(text);
            Token tok;
            tok.kind = it != kKeywords.end() ? it->second : TokKind::kIdent;
            tok.text = std::move(text);
            tok.line = tok_line;
            tok.col = tok_col;
            tokens.push_back(std::move(tok));
            continue;
        }

        // Numeric literals (decimal; optional fraction makes a float;
        // 0x prefix for hex ints).
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::string text;
            bool is_float = false;
            if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
                advance();
                advance();
                while (i < n && std::isxdigit(
                           static_cast<unsigned char>(peek()))) {
                    text += peek();
                    advance();
                }
                if (text.empty())
                    TEPIC_FATAL("malformed hex literal at line ", tok_line);
                Token tok;
                tok.kind = TokKind::kIntLit;
                tok.intValue = parseLiteral<std::int64_t>(
                    text, "integer", tok_line, tok_col, 16);
                tok.line = tok_line;
                tok.col = tok_col;
                tokens.push_back(std::move(tok));
                continue;
            }
            while (i < n &&
                   std::isdigit(static_cast<unsigned char>(peek()))) {
                text += peek();
                advance();
            }
            if (peek() == '.' &&
                std::isdigit(static_cast<unsigned char>(peek(1)))) {
                is_float = true;
                text += '.';
                advance();
                while (i < n &&
                       std::isdigit(static_cast<unsigned char>(peek()))) {
                    text += peek();
                    advance();
                }
            }
            Token tok;
            tok.line = tok_line;
            tok.col = tok_col;
            if (is_float) {
                tok.kind = TokKind::kFloatLit;
                tok.floatValue = parseLiteral<double>(text, "float",
                                                      tok_line, tok_col);
            } else {
                tok.kind = TokKind::kIntLit;
                tok.intValue = parseLiteral<std::int64_t>(
                    text, "integer", tok_line, tok_col, 10);
            }
            tokens.push_back(std::move(tok));
            continue;
        }

        // Operators and punctuation.
        auto two = [&](char second, TokKind two_kind, TokKind one_kind) {
            advance();
            if (peek() == second) {
                advance();
                push(two_kind, tok_line, tok_col);
            } else {
                push(one_kind, tok_line, tok_col);
            }
        };

        switch (c) {
          case '(': advance(); push(TokKind::kLParen, tok_line, tok_col);
            break;
          case ')': advance(); push(TokKind::kRParen, tok_line, tok_col);
            break;
          case '{': advance(); push(TokKind::kLBrace, tok_line, tok_col);
            break;
          case '}': advance(); push(TokKind::kRBrace, tok_line, tok_col);
            break;
          case '[': advance(); push(TokKind::kLBracket, tok_line, tok_col);
            break;
          case ']': advance(); push(TokKind::kRBracket, tok_line, tok_col);
            break;
          case ',': advance(); push(TokKind::kComma, tok_line, tok_col);
            break;
          case ';': advance(); push(TokKind::kSemi, tok_line, tok_col);
            break;
          case ':': advance(); push(TokKind::kColon, tok_line, tok_col);
            break;
          case '+': advance(); push(TokKind::kPlus, tok_line, tok_col);
            break;
          case '-': advance(); push(TokKind::kMinus, tok_line, tok_col);
            break;
          case '*': advance(); push(TokKind::kStar, tok_line, tok_col);
            break;
          case '/': advance(); push(TokKind::kSlash, tok_line, tok_col);
            break;
          case '%': advance(); push(TokKind::kPercent, tok_line, tok_col);
            break;
          case '^': advance(); push(TokKind::kCaret, tok_line, tok_col);
            break;
          case '~': advance(); push(TokKind::kTilde, tok_line, tok_col);
            break;
          case '&': two('&', TokKind::kAndAnd, TokKind::kAmp); break;
          case '|': two('|', TokKind::kOrOr, TokKind::kPipe); break;
          case '=': two('=', TokKind::kEq, TokKind::kAssign); break;
          case '!': two('=', TokKind::kNe, TokKind::kBang); break;
          case '<':
            advance();
            if (peek() == '=') {
                advance();
                push(TokKind::kLe, tok_line, tok_col);
            } else if (peek() == '<') {
                advance();
                push(TokKind::kShl, tok_line, tok_col);
            } else {
                push(TokKind::kLt, tok_line, tok_col);
            }
            break;
          case '>':
            advance();
            if (peek() == '=') {
                advance();
                push(TokKind::kGe, tok_line, tok_col);
            } else if (peek() == '>') {
                advance();
                push(TokKind::kShr, tok_line, tok_col);
            } else {
                push(TokKind::kGt, tok_line, tok_col);
            }
            break;
          default:
            TEPIC_FATAL("unexpected character '", c, "' at line ",
                        tok_line, " col ", tok_col);
        }
    }

    Token eof;
    eof.kind = TokKind::kEof;
    eof.line = line;
    eof.col = col;
    tokens.push_back(std::move(eof));
    return tokens;
}

} // namespace tepic::compiler
