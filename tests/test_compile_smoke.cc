/**
 * @file
 * End-to-end smoke tests: tinkerc source -> compiled VLIW program ->
 * emulated execution, checking exit values against hand-computed
 * results. These tests gate everything downstream (all compression and
 * fetch experiments consume compiled programs).
 */

#include <gtest/gtest.h>

#include "compiler/driver.hh"
#include "sim/emulator.hh"

namespace {

using tepic::compiler::compileSource;
using tepic::compiler::CompileOptions;

std::int32_t
runProgram(const std::string &source)
{
    auto compiled = compileSource(source);
    auto result = tepic::sim::emulate(compiled.program, compiled.data);
    return result.exitValue;
}

TEST(CompileSmoke, ReturnsConstant)
{
    EXPECT_EQ(runProgram("func main(): int { return 42; }"), 42);
}

TEST(CompileSmoke, Arithmetic)
{
    EXPECT_EQ(runProgram(
        "func main(): int { return (3 + 4) * 5 - 6 / 2; }"), 32);
}

TEST(CompileSmoke, VariablesAndAssignment)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var a = 10;
            var b = a * 3;
            a = b - 5;
            return a + b;
        }
    )"), 55);
}

TEST(CompileSmoke, IfElse)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var x = 7;
            if (x > 5) { x = x * 2; } else { x = 0; }
            return x;
        }
    )"), 14);
}

TEST(CompileSmoke, WhileLoopSum)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var sum = 0;
            var i = 1;
            while (i <= 100) { sum = sum + i; i = i + 1; }
            return sum;
        }
    )"), 5050);
}

TEST(CompileSmoke, ForLoopFactorial)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var f = 1;
            for (var i = 2; i <= 10; i = i + 1) { f = f * i; }
            return f;
        }
    )"), 3628800);
}

TEST(CompileSmoke, FunctionCall)
{
    EXPECT_EQ(runProgram(R"(
        func add3(a, b, c): int { return a + b + c; }
        func main(): int { return add3(1, 2, 3) + add3(10, 20, 30); }
    )"), 66);
}

TEST(CompileSmoke, Recursion)
{
    EXPECT_EQ(runProgram(R"(
        func fib(n): int {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        func main(): int { return fib(15); }
    )"), 610);
}

TEST(CompileSmoke, GlobalsAndArrays)
{
    EXPECT_EQ(runProgram(R"(
        var table[10];
        var total = 0;
        func main(): int {
            for (var i = 0; i < 10; i = i + 1) { table[i] = i * i; }
            for (var i = 0; i < 10; i = i + 1) {
                total = total + table[i];
            }
            return total;
        }
    )"), 285);
}

TEST(CompileSmoke, LocalArrays)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var buf[16];
            for (var i = 0; i < 16; i = i + 1) { buf[i] = i + 1; }
            var acc = 0;
            for (var i = 0; i < 16; i = i + 1) { acc = acc + buf[i]; }
            return acc;
        }
    )"), 136);
}

TEST(CompileSmoke, ShortCircuit)
{
    EXPECT_EQ(runProgram(R"(
        var hits = 0;
        func bump(): int { hits = hits + 1; return 1; }
        func main(): int {
            var a = 0;
            if (a && bump()) { return 100; }
            if (1 || bump()) {
                return hits;  // both short-circuits: hits stays 0
            }
            return 50;
        }
    )"), 0);
}

TEST(CompileSmoke, BitwiseAndShifts)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var x = 0xF0F0;
            var y = (x >> 4) & 0xFF;
            var z = (y << 8) | 15;
            return z ^ 1;
        }
    )"), (((0xF0F0 >> 4) & 0xFF) << 8 | 15) ^ 1);
}

TEST(CompileSmoke, FloatArithmetic)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var x: float = 1.5;
            var y: float = 2.25;
            var z: float = x * y + 0.75;
            return int(z * 4.0);
        }
    )"), 16);  // (1.5*2.25 + 0.75) * 4 = 16.5 -> truncates to 16
}

TEST(CompileSmoke, FloatCompareAndConvert)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var a: float = 3.0;
            var b: float = 4.0;
            var count = 0;
            if (a < b) { count = count + 1; }
            if (b <= 4.0) { count = count + 1; }
            if (a == 3.0) { count = count + 1; }
            if (a > b) { count = count + 100; }
            return count + int(float(10) / 4.0);
        }
    )"), 5);  // 3 + int(2.5)
}

TEST(CompileSmoke, BreakContinue)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var s = 0;
            for (var i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 20) { break; }
                s = s + i;
            }
            return s;
        }
    )"), 1 + 3 + 5 + 7 + 9 + 11 + 13 + 15 + 17 + 19);
}

TEST(CompileSmoke, NegativeNumbersAndUnary)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var a = -7;
            var b = ~a;      // 6
            var c = !b;      // 0
            var d = !c;      // 1
            return a + b * 10 + c + d * 100;
        }
    )"), -7 + 60 + 0 + 100);
}

TEST(CompileSmoke, LargeConstants)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var big = 1000000;
            var huge = 0x7FFFFFFF;
            return big % 97 + (huge & 0xFF);
        }
    )"), 1000000 % 97 + 0xFF);
}

TEST(CompileSmoke, DeepCallChainSpills)
{
    // Forces register pressure across calls (callee-saved + spills).
    EXPECT_EQ(runProgram(R"(
        func leaf(x): int { return x * 2 + 1; }
        func main(): int {
            var a = 1; var b = 2; var c = 3; var d = 4;
            var e = 5; var f = 6; var g = 7; var h = 8;
            var i = 9; var j = 10; var k = 11; var l = 12;
            var m = 13; var n = 14; var o = 15; var p = 16;
            var q = leaf(a + p);
            var r = leaf(b + o);
            var s = leaf(c + n);
            return a+b+c+d+e+f+g+h+i+j+k+l+m+n+o+p + q+r+s
                   + leaf(q + r + s);
        }
    )"), 1+2+3+4+5+6+7+8+9+10+11+12+13+14+15+16 + 35+35+35
         + (35*3*2 + 1));
}

TEST(CompileSmoke, MixedIntFloatPromotion)
{
    EXPECT_EQ(runProgram(R"(
        func main(): int {
            var n = 7;
            var x: float = n / 2;     // int division first: 3
            var y: float = n / 2.0;   // promoted: 3.5
            return int(x * 10.0) + int(y * 10.0);
        }
    )"), 30 + 35);
}

TEST(CompileSmoke, ProfileGuidedRelayoutKeepsSemantics)
{
    const std::string source = R"(
        func collatz(n): int {
            var steps = 0;
            while (n != 1) {
                if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                steps = steps + 1;
            }
            return steps;
        }
        func main(): int {
            var total = 0;
            for (var i = 1; i < 50; i = i + 1) {
                total = total + collatz(i);
            }
            return total;
        }
    )";
    auto compiled = compileSource(source);
    auto first = tepic::sim::emulate(compiled.program, compiled.data);
    tepic::compiler::applyProfileAndRelayout(
        compiled, first.blockCounts,
        tepic::isa::MachineConfig::paperDefault());
    auto second = tepic::sim::emulate(compiled.program, compiled.data);
    EXPECT_EQ(first.exitValue, second.exitValue);
    // Profile-guided layout straightens hot paths, so the dynamic op
    // count may only drop (fewer unconditional jumps executed).
    EXPECT_LE(second.dynamicOps, first.dynamicOps);
}

TEST(CompileSmoke, TraceIsConsistent)
{
    auto compiled = compileSource(R"(
        func main(): int {
            var s = 0;
            for (var i = 0; i < 10; i = i + 1) { s = s + i; }
            return s;
        }
    )");
    auto result = tepic::sim::emulate(compiled.program, compiled.data);
    EXPECT_EQ(result.exitValue, 45);
    const tepic::sim::TraceView trace = result.trace.view();
    ASSERT_NE(trace.size(), 0u);
    EXPECT_EQ(trace.block(0), compiled.program.entry());
    // The run ends in main's return, a taken branch into the halt id.
    EXPECT_TRUE(trace.taken(trace.size() - 1));
    // Block counts agree with the trace.
    std::vector<std::uint64_t> counts(compiled.program.blocks().size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ++counts[trace.block(i)];
    EXPECT_EQ(counts, result.blockCounts);
}

} // namespace
