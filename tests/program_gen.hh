/**
 * @file
 * Deterministic random tinkerc programs for the differential tests
 * (test_fuzz, test_sweep): bounded loops, guarded division and
 * in-bounds indexing, so every generated program terminates and
 * computes the same exit value under any correct toolchain.
 */

#ifndef TEPIC_TESTS_PROGRAM_GEN_HH
#define TEPIC_TESTS_PROGRAM_GEN_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "support/rng.hh"

namespace tepic::test {

/** Generates one random, always-terminating tinkerc program. */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

    std::string
    generate()
    {
        os_ << "var g0 = " << rng_.range(1, 1000) << ";\n";
        os_ << "var g1 = " << rng_.range(1, 1000) << ";\n";
        os_ << "var arr[16];\n";

        // A couple of helper functions.
        const int helpers = int(rng_.range(1, 3));
        for (int h = 0; h < helpers; ++h) {
            os_ << "func h" << h << "(a, b): int {\n";
            indent_ = 1;
            vars_ = {"a", "b", "g0", "g1"};
            mutables_ = vars_;
            emitStmts(int(rng_.range(2, 5)), 2);
            line("return " + expr(3) + ";");
            os_ << "}\n";
            helpers_ = h + 1;
        }

        os_ << "func main(): int {\n";
        indent_ = 1;
        vars_ = {"g0", "g1"};
        mutables_ = vars_;
        line("var acc = 1;");
        vars_.push_back("acc");
        mutables_.push_back("acc");
        emitStmts(int(rng_.range(4, 9)), 3);
        line("for (var i = 0; i < 16; i = i + 1) { acc = acc + "
             "arr[i]; }");
        line("return acc;");
        os_ << "}\n";
        return os_.str();
    }

  private:
    support::Rng rng_;
    std::ostringstream os_;
    int indent_ = 0;
    int helpers_ = 0;
    int loopDepth_ = 0;
    int tmpCount_ = 0;
    std::vector<std::string> vars_;      ///< readable
    std::vector<std::string> mutables_;  ///< writable (no loop ivs)

    void
    line(const std::string &text)
    {
        for (int i = 0; i < indent_; ++i)
            os_ << "    ";
        os_ << text << '\n';
    }

    std::string
    var()
    {
        return vars_[rng_.below(vars_.size())];
    }

    /** A variable that is safe to assign (never a loop iv). */
    std::string
    mutableVar()
    {
        return mutables_[rng_.below(mutables_.size())];
    }

    /** An expression of bounded depth; only safe operators. */
    std::string
    expr(int depth)
    {
        if (depth == 0 || rng_.chance(0.3)) {
            switch (rng_.below(3)) {
              case 0: return std::to_string(rng_.range(-99, 99));
              case 1: return var();
              default:
                return "arr[(" + var() + " & 15)]";
            }
        }
        if (helpers_ > 0 && depth >= 2 && rng_.chance(0.15)) {
            const int h = int(rng_.below(std::uint64_t(helpers_)));
            return "h" + std::to_string(h) + "(" + expr(depth - 1) +
                   ", " + expr(depth - 1) + ")";
        }
        static const char *ops[] = {"+", "-", "*", "&", "|", "^",
                                    "<<", ">>"};
        const char *op = ops[rng_.below(8)];
        std::string lhs = expr(depth - 1);
        std::string rhs = expr(depth - 1);
        if (std::string(op) == "<<" || std::string(op) == ">>")
            rhs = "(" + rhs + " & 7)";
        if (rng_.chance(0.15))  // guarded division
            return "(" + lhs + ") / ((" + rhs + " & 7) + 1)";
        if (rng_.chance(0.15))
            return "(" + lhs + ") % ((" + rhs + " & 7) + 2)";
        return "(" + lhs + " " + op + " " + rhs + ")";
    }

    std::string
    cond()
    {
        static const char *rel[] = {"<", "<=", ">", ">=", "==", "!="};
        return "(" + expr(2) + ") " + rel[rng_.below(6)] + " (" +
               expr(2) + ")";
    }

    void
    emitStmts(int count, int depth)
    {
        for (int s = 0; s < count; ++s) {
            switch (rng_.below(depth > 0 ? 5 : 3)) {
              case 0: {  // new local
                const std::string name =
                    "t" + std::to_string(tmpCount_++);
                line("var " + name + " = " + expr(2) + ";");
                vars_.push_back(name);
                mutables_.push_back(name);
                break;
              }
              case 1:  // assignment (never to a loop iv)
                line(mutableVar() + " = " + expr(3) + ";");
                break;
              case 2:  // array store
                line("arr[(" + var() + " & 15)] = " + expr(2) + ";");
                break;
              case 3: {  // if / if-else
                line("if (" + cond() + ") {");
                ++indent_;
                const std::size_t saved = vars_.size();
                const std::size_t msaved = mutables_.size();
                emitStmts(int(rng_.range(1, 3)), depth - 1);
                vars_.resize(saved);
                mutables_.resize(msaved);
                --indent_;
                if (rng_.chance(0.5)) {
                    line("} else {");
                    ++indent_;
                    emitStmts(int(rng_.range(1, 2)), depth - 1);
                    vars_.resize(saved);
                    mutables_.resize(msaved);
                    --indent_;
                }
                line("}");
                break;
              }
              default: {  // bounded counted loop (always terminates)
                if (loopDepth_ >= 2)
                    break;
                ++loopDepth_;
                const std::string iv =
                    "i" + std::to_string(tmpCount_++);
                line("for (var " + iv + " = 0; " + iv + " < " +
                     std::to_string(rng_.range(2, 20)) + "; " + iv +
                     " = " + iv + " + 1) {");
                ++indent_;
                const std::size_t saved = vars_.size();
                const std::size_t msaved = mutables_.size();
                vars_.push_back(iv);  // readable but never assigned
                emitStmts(int(rng_.range(1, 3)), depth - 1);
                vars_.resize(saved);
                mutables_.resize(msaved);
                --indent_;
                line("}");
                --loopDepth_;
                break;
              }
            }
        }
    }
};

} // namespace tepic::test

#endif // TEPIC_TESTS_PROGRAM_GEN_HH
