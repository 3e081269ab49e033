/**
 * @file
 * Front-end tests: lexer token streams, parser error reporting,
 * semantic checks in IR generation, and optimiser behaviour —
 * including the key safety property that optimisation never changes a
 * program's observable result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "compiler/driver.hh"
#include "compiler/irgen.hh"
#include "compiler/lexer.hh"
#include "compiler/lower.hh"
#include "compiler/opt.hh"
#include "compiler/parser.hh"
#include "sim/emulator.hh"
#include "support/logging.hh"

namespace {

using namespace tepic::compiler;

TEST(Lexer, TokenKinds)
{
    const auto tokens =
        lex("func f() { var x = 0x1F + 2.5; } // comment");
    ASSERT_GE(tokens.size(), 12u);
    EXPECT_EQ(tokens[0].kind, TokKind::kKwFunc);
    EXPECT_EQ(tokens[1].kind, TokKind::kIdent);
    EXPECT_EQ(tokens[1].text, "f");
    EXPECT_EQ(tokens.back().kind, TokKind::kEof);

    bool saw_hex = false;
    bool saw_float = false;
    for (const auto &tok : tokens) {
        if (tok.kind == TokKind::kIntLit && tok.intValue == 0x1f)
            saw_hex = true;
        if (tok.kind == TokKind::kFloatLit && tok.floatValue == 2.5)
            saw_float = true;
    }
    EXPECT_TRUE(saw_hex);
    EXPECT_TRUE(saw_float);
}

TEST(Lexer, TwoCharOperators)
{
    const auto tokens = lex("<= >= == != << >> && ||");
    EXPECT_EQ(tokens[0].kind, TokKind::kLe);
    EXPECT_EQ(tokens[1].kind, TokKind::kGe);
    EXPECT_EQ(tokens[2].kind, TokKind::kEq);
    EXPECT_EQ(tokens[3].kind, TokKind::kNe);
    EXPECT_EQ(tokens[4].kind, TokKind::kShl);
    EXPECT_EQ(tokens[5].kind, TokKind::kShr);
    EXPECT_EQ(tokens[6].kind, TokKind::kAndAnd);
    EXPECT_EQ(tokens[7].kind, TokKind::kOrOr);
}

TEST(Lexer, LineNumbersAndErrors)
{
    const auto tokens = lex("a\nb\n  c");
    EXPECT_EQ(tokens[0].line, 1u);
    EXPECT_EQ(tokens[1].line, 2u);
    EXPECT_EQ(tokens[2].line, 3u);
    EXPECT_EQ(tokens[2].col, 3u);
    EXPECT_ANY_THROW(lex("@"));
    EXPECT_ANY_THROW(lex("/* unterminated"));
}

/** The diagnostic lex(@p source) fails with ("" if it lexes). */
std::string
lexError(const std::string &source)
{
    try {
        lex(source);
    } catch (const tepic::support::FatalError &error) {
        return error.message();
    }
    return "";
}

TEST(Lexer, LiteralRanges)
{
    // The extremes that fit lex to their values.
    const auto tokens =
        lex("9223372036854775807 0x7fffffffffffffff 0.5");
    EXPECT_EQ(tokens[0].intValue, INT64_MAX);
    EXPECT_EQ(tokens[1].intValue, INT64_MAX);
    EXPECT_EQ(tokens[2].floatValue, 0.5);

    // One past them is a diagnostic naming the literal's position.
    EXPECT_EQ(lexError("x = 9223372036854775808"),
              "integer literal out of range at line 1 col 5");
    EXPECT_EQ(lexError("\n  0x8000000000000000"),
              "integer literal out of range at line 2 col 3");
    EXPECT_EQ(lexError(std::string(400, '9') + ".5"),
              "float literal out of range at line 1 col 1");
}

TEST(Lexer, BlockComments)
{
    const auto tokens = lex("a /* b \n c */ d");
    ASSERT_EQ(tokens.size(), 3u);  // a, d, eof
    EXPECT_EQ(tokens[1].text, "d");
}

TEST(Parser, RejectsSyntaxErrors)
{
    EXPECT_ANY_THROW(parse("func f( { }"));
    EXPECT_ANY_THROW(parse("func f() { var; }"));
    EXPECT_ANY_THROW(parse("func f() { if x { } }"));
    EXPECT_ANY_THROW(parse("var g[0];"));  // zero-size array
    EXPECT_ANY_THROW(parse("junk"));
}

TEST(Parser, Precedence)
{
    // 2 + 3 * 4 parses as 2 + (3 * 4): check through execution.
    const auto ast = parse("func main(): int { return 2 + 3 * 4; }");
    ASSERT_EQ(ast.functions.size(), 1u);
    const auto &ret_stmt = *ast.functions[0].body->stmts[0];
    ASSERT_EQ(ret_stmt.kind, StmtKind::kReturn);
    const auto &e = *ret_stmt.value;
    ASSERT_EQ(e.kind, ExprKind::kBinary);
    EXPECT_EQ(e.binOp, BinOp::kAdd);
    EXPECT_EQ(e.rhs->kind, ExprKind::kBinary);
    EXPECT_EQ(e.rhs->binOp, BinOp::kMul);
}

TEST(Parser, ElseIfChains)
{
    const auto ast = parse(R"(
        func main(): int {
            var x = 1;
            if (x == 0) { x = 1; }
            else if (x == 1) { x = 2; }
            else { x = 3; }
            return x;
        }
    )");
    const auto &if_stmt = *ast.functions[0].body->stmts[1];
    ASSERT_EQ(if_stmt.kind, StmtKind::kIf);
    ASSERT_NE(if_stmt.elseBody, nullptr);
    EXPECT_EQ(if_stmt.elseBody->kind, StmtKind::kIf);
}

TEST(IrGen, SemanticErrors)
{
    EXPECT_ANY_THROW(generateIr(
        parse("func main(): int { return missing; }")));
    EXPECT_ANY_THROW(generateIr(
        parse("func main(): int { return nofunc(1); }")));
    EXPECT_ANY_THROW(generateIr(parse(
        "func f(a): int { return a; }"
        "func main(): int { return f(1, 2); }")));
    EXPECT_ANY_THROW(generateIr(parse(
        "func main(): int { break; return 0; }")));
    EXPECT_ANY_THROW(generateIr(parse(
        "func main(): int { var a[4]; return a; }")));
    EXPECT_ANY_THROW(generateIr(parse(
        "func v() { return 1; } func main(): int { return 0; }")));
    EXPECT_ANY_THROW(generateIr(parse(
        "var g; var g; func main(): int { return 0; }")));
    EXPECT_ANY_THROW(generateIr(parse(
        "func main(): int { var x = 1; var x = 2; return x; }")));
}

TEST(IrGen, MissingMainCaughtAtLowering)
{
    auto module = generateIr(parse("func helper(): int { return 1; }"));
    EXPECT_ANY_THROW(lower(module));
}

namespace {

std::int32_t
runWith(const std::string &source, bool optimise)
{
    CompileOptions options;
    options.optimise = optimise;
    auto compiled = compileSource(source, options);
    return tepic::sim::emulate(compiled.program, compiled.data)
        .exitValue;
}

std::size_t
opCountWith(const std::string &source, bool optimise)
{
    CompileOptions options;
    options.optimise = optimise;
    return compileSource(source, options).program.opCount();
}

} // namespace

TEST(Optimiser, NeverChangesResults)
{
    // The gold property: -O0 and -O2 agree, across language features.
    const char *programs[] = {
        "func main(): int { return 1 + 2 * 3 - 4 / 2; }",
        R"(func main(): int {
            var s = 0;
            for (var i = 0; i < 37; i = i + 1) {
                if (i % 3 == 0) { s = s + i * 2; }
                else { s = s - i; }
            }
            return s;
        })",
        R"(func h(a, b): int { return a * 31 + b; }
        func main(): int {
            var acc = 7;
            for (var i = 0; i < 10; i = i + 1) { acc = h(acc, i); }
            return acc;
        })",
        R"(var tbl[32];
        func main(): int {
            for (var i = 0; i < 32; i = i + 1) { tbl[i] = i * i; }
            var s = 0;
            for (var i = 31; i >= 0; i = i - 1) { s = s ^ tbl[i]; }
            return s;
        })",
        R"(func main(): int {
            var x: float = 0.5;
            var s = 0;
            while (x < 100.0) { x = x * 1.5; s = s + 1; }
            return s + int(x);
        })",
    };
    for (const char *src : programs) {
        EXPECT_EQ(runWith(src, true), runWith(src, false)) << src;
    }
}

TEST(Optimiser, FoldsConstants)
{
    const char *src =
        "func main(): int { return (2 + 3) * (10 - 6); }";
    EXPECT_LT(opCountWith(src, true), opCountWith(src, false));
    EXPECT_EQ(runWith(src, true), 20);
}

TEST(Optimiser, EliminatesDeadCode)
{
    const char *src = R"(
        func main(): int {
            var dead1 = 111 * 7;
            var dead2 = dead1 + 5;
            return 3;
        }
    )";
    EXPECT_LT(opCountWith(src, true), opCountWith(src, false));
}

TEST(Optimiser, CseReusesAddressArithmetic)
{
    const char *src = R"(
        var a[64];
        func main(): int {
            var i = 5;
            a[i] = 10;
            return a[i] + a[i];
        }
    )";
    EXPECT_EQ(runWith(src, true), 20);
    EXPECT_LT(opCountWith(src, true), opCountWith(src, false));
}

TEST(Optimiser, FoldsConstantBranches)
{
    const char *src = R"(
        func main(): int {
            if (1 < 2) { return 5; }
            return 6;
        }
    )";
    auto compiled = compileSource(src);
    EXPECT_EQ(tepic::sim::emulate(compiled.program,
                                  compiled.data).exitValue, 5);
    // The never-taken side must be gone entirely.
    EXPECT_LE(compiled.program.blocks().size(), 2u);
}

TEST(Compiler, SchedulerHonoursIssueWidth)
{
    // A machine of width 1 still computes the same result.
    const char *src = R"(
        func main(): int {
            var a = 1; var b = 2; var c = 3; var d = 4;
            return (a + b) * (c + d) + (a ^ d) - (b & c);
        }
    )";
    CompileOptions narrow;
    narrow.machine.issueWidth = 1;
    narrow.machine.memoryUnits = 1;
    auto wide = compileSource(src);
    auto thin = compileSource(src, narrow);
    EXPECT_EQ(tepic::sim::emulate(wide.program, wide.data).exitValue,
              tepic::sim::emulate(thin.program, thin.data).exitValue);
    // Width-1 MOPs are singletons.
    for (const auto &blk : thin.program.blocks())
        for (const auto &mop : blk.mops)
            EXPECT_EQ(mop.size(), 1u);
    EXPECT_GE(wide.schedStats.ilp(), thin.schedStats.ilp());
}

TEST(Compiler, RegisterPressureSpillsCorrectly)
{
    // 30 simultaneously-live values exceed the allocatable pools and
    // force spill code; the result must still be exact.
    std::string src = "func main(): int {\n";
    for (int i = 0; i < 30; ++i) {
        src += "    var v" + std::to_string(i) + " = " +
               std::to_string(i * 7 + 1) + ";\n";
    }
    // Keep all alive until the end.
    src += "    var s = 0;\n";
    for (int i = 0; i < 30; ++i)
        src += "    s = s * 3 + v" + std::to_string(i) + ";\n";
    src += "    return s;\n}\n";

    std::int64_t expected = 0;
    for (int i = 0; i < 30; ++i)
        expected = std::int32_t(expected * 3 + (i * 7 + 1));
    EXPECT_EQ(runWith(src, true), std::int32_t(expected));
    EXPECT_EQ(runWith(src, false), std::int32_t(expected));
}

TEST(Compiler, EveryBlockEndsAtomically)
{
    // No interior branches, tail bits intact — validate() enforces
    // both; exercised on a call/loop heavy program.
    const char *src = R"(
        func f(x): int { if (x > 0) { return f(x - 1) + 1; } return 0; }
        func main(): int {
            var s = 0;
            for (var i = 0; i < 5; i = i + 1) { s = s + f(i); }
            return s;
        }
    )";
    auto compiled = compileSource(src);
    // validate() ran inside scheduleProgram; re-run explicitly.
    compiled.program.validate(tepic::isa::MachineConfig::paperDefault());
    EXPECT_EQ(tepic::sim::emulate(compiled.program,
                                  compiled.data).exitValue, 10);
}

} // namespace
