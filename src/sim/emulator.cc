#include "sim/emulator.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/logging.hh"

namespace tepic::sim {

namespace {

using isa::Opcode;
using isa::Operation;
using isa::OpType;

/** Sign-extend the low @p bits of @p value. */
std::int32_t
signExtend(std::uint32_t value, unsigned bits)
{
    const std::uint32_t mask = 1u << (bits - 1);
    const std::uint32_t ext = value & ((1u << bits) - 1);
    return std::int32_t((ext ^ mask) - mask);
}

/**
 * Register-file slots. Slots 0-31 are the architectural registers;
 * slot 32+r is the shadow of register r. Writes to r0/p0 land in slot
 * 32 and are never copied back, so the GPR and predicate shadows of
 * register 0 double as the sink; f0 is an ordinary register.
 */
constexpr unsigned kShadow = 32;
constexpr unsigned kNumSlots = 2 * kShadow;

/**
 * One dispatch id per (format, opcode) pair, plus the shadow-slot
 * copies. `brct` decodes to kBr (its guard is the condition); `brcf`
 * runs unguarded and tests its predicate as src1.
 */
enum class Uop : std::uint8_t {
    kAdd, kSub, kMul, kDiv, kRem, kAnd, kOr, kXor, kShl, kShr, kSra, kMov,
    kCmppEq, kCmppNe, kCmppLt, kCmppLe, kCmppGt, kCmppGe,
    kLdi,
    kFadd, kFsub, kFmul, kFdiv, kFmov, kItof, kFtoi,
    kFcmppEq, kFcmppLt, kFcmppLe,
    kLoad, kFload, kStore, kFstore,
    kBr, kBrcf, kCall, kRet, kBrlc,
    kCopyGpr, kCopyFpr, kCopyPred,
};

/** One pre-decoded micro-op: operands are register-file slots. */
struct DecodedOp
{
    Uop uop;
    std::uint8_t guard;  ///< predicate slot; the op is a NOP when false
    std::uint8_t dst;
    std::uint8_t src1;
    std::uint8_t src2;
    std::int32_t imm;    ///< sign-extended ldi value or branch target
};
static_assert(sizeof(DecodedOp) == 12);

/** A block's slice of the decoded stream. */
struct DecodedBlock
{
    std::uint32_t firstOp = 0;
    std::uint32_t endOp = 0;
    std::uint32_t numMops = 0;
    std::uint32_t numOps = 0;
    isa::BlockId fallthrough = isa::kNoBlock;
};

enum RegFile : std::uint8_t { kNone, kGpr, kFpr, kPred };

/** Which register file each operand of a micro-op names. */
struct OperandFiles
{
    RegFile dst, src1, src2;
};

OperandFiles
operandFiles(Uop uop)
{
    switch (uop) {
      case Uop::kMov: return {kGpr, kGpr, kNone};
      case Uop::kCmppEq: case Uop::kCmppNe: case Uop::kCmppLt:
      case Uop::kCmppLe: case Uop::kCmppGt: case Uop::kCmppGe:
        return {kPred, kGpr, kGpr};
      case Uop::kLdi: return {kGpr, kNone, kNone};
      case Uop::kFadd: case Uop::kFsub: case Uop::kFmul: case Uop::kFdiv:
        return {kFpr, kFpr, kFpr};
      case Uop::kFmov: return {kFpr, kFpr, kNone};
      case Uop::kItof: return {kFpr, kGpr, kNone};
      case Uop::kFtoi: return {kGpr, kFpr, kNone};
      case Uop::kFcmppEq: case Uop::kFcmppLt: case Uop::kFcmppLe:
        return {kPred, kFpr, kFpr};
      case Uop::kLoad: return {kGpr, kGpr, kNone};
      case Uop::kFload: return {kFpr, kGpr, kNone};
      case Uop::kStore: return {kNone, kGpr, kGpr};
      case Uop::kFstore: return {kNone, kGpr, kFpr};
      case Uop::kBr: return {kNone, kNone, kNone};
      case Uop::kBrcf: return {kNone, kPred, kNone};
      case Uop::kCall: return {kGpr, kNone, kNone};
      case Uop::kRet: return {kNone, kGpr, kNone};
      case Uop::kBrlc: return {kGpr, kGpr, kNone};
      case Uop::kCopyGpr: return {kGpr, kGpr, kNone};
      case Uop::kCopyFpr: return {kFpr, kFpr, kNone};
      case Uop::kCopyPred: return {kPred, kPred, kNone};
      default: return {kGpr, kGpr, kGpr};  // the IntAlu binaries
    }
}

/** The fused dispatch id of @p op; panics on an opcode with no format. */
Uop
uopFor(const Operation &op)
{
    const unsigned code = static_cast<unsigned>(op.opcode());
    switch (op.opType()) {
      case OpType::kInt:
        if (code <= static_cast<unsigned>(Opcode::kMov))
            return Uop(unsigned(Uop::kAdd) + code);
        if (code == static_cast<unsigned>(Opcode::kLdi))
            return Uop::kLdi;
        if (code >= static_cast<unsigned>(Opcode::kCmppEq) &&
            code <= static_cast<unsigned>(Opcode::kCmppGe)) {
            return Uop(unsigned(Uop::kCmppEq) + code -
                       static_cast<unsigned>(Opcode::kCmppEq));
        }
        TEPIC_PANIC("bad IntAlu opcode ", code);
      case OpType::kFloat:
        if (code <= static_cast<unsigned>(Opcode::kFtoi))
            return Uop(unsigned(Uop::kFadd) + code);
        if (code >= static_cast<unsigned>(Opcode::kFcmppEq) &&
            code <= static_cast<unsigned>(Opcode::kFcmppLe)) {
            return Uop(unsigned(Uop::kFcmppEq) + code -
                       static_cast<unsigned>(Opcode::kFcmppEq));
        }
        TEPIC_PANIC("bad FloatAlu opcode ", code);
      case OpType::kMemory:
        switch (op.opcode()) {
          case Opcode::kLoad: return Uop::kLoad;
          case Opcode::kFload: return Uop::kFload;
          case Opcode::kStore: return Uop::kStore;
          case Opcode::kFstore: return Uop::kFstore;
          default: TEPIC_PANIC("bad memory opcode ", code);
        }
      case OpType::kBranch:
        switch (op.opcode()) {
          case Opcode::kBr: case Opcode::kBrct: return Uop::kBr;
          case Opcode::kBrcf: return Uop::kBrcf;
          case Opcode::kCall: return Uop::kCall;
          case Opcode::kRet: return Uop::kRet;
          case Opcode::kBrlc: return Uop::kBrlc;
          default: TEPIC_PANIC("bad branch opcode ", code);
        }
    }
    TEPIC_PANIC("bad op type ", unsigned(op.opType()));
}

/** A register number that must name one of the 32 registers. */
std::uint8_t
regSlot(unsigned reg)
{
    TEPIC_ASSERT(reg < kShadow, "register ", reg, " out of range");
    return std::uint8_t(reg);
}

/** @p op with architectural register numbers in its operand slots. */
DecodedOp
decodeOp(const Operation &op)
{
    DecodedOp d{uopFor(op), regSlot(op.pred()), 0, 0, 0, 0};
    const OperandFiles files = operandFiles(d.uop);
    if (files.dst != kNone)
        d.dst = regSlot(op.dest());
    if (files.src1 != kNone)
        d.src1 = regSlot(op.src1());
    if (files.src2 != kNone)
        d.src2 = regSlot(op.src2());
    switch (d.uop) {
      case Uop::kLdi:
        d.imm = signExtend(op.imm(), 20);
        break;
      case Uop::kBrcf:
        d.src1 = d.guard;  // taken when the guard is *false*
        d.guard = isa::kPredTrue;
        break;
      case Uop::kCall:
        d.dst = isa::kRegLink;
        break;
      case Uop::kBrlc:
        d.dst = d.src1 = regSlot(op.field(isa::FieldKind::kCounter));
        break;
      default:
        break;
    }
    if (op.isBranch())
        d.imm = std::int32_t(op.target());
    return d;
}

/**
 * Append @p mop to @p out with VLIW read-at-issue semantics: every op
 * reads the register file as it was before the MOP. A register that
 * one op writes and a later op reads gets all of the MOP's writes
 * renamed to its shadow slot, bracketed by a copy-in (so a write whose
 * guard is false leaves the old value) and a copy-out. Writes to r0/p0
 * go to the sink; all other writes go straight to the register file.
 */
void
decodeMop(const isa::Mop &mop, std::vector<DecodedOp> &out)
{
    // Indexed by RegFile; the kNone entry collects unused operands.
    std::array<std::uint32_t, 4> written{}, renamed{};
    for (const auto &op : mop.ops()) {
        const DecodedOp d = decodeOp(op);
        const OperandFiles files = operandFiles(d.uop);
        renamed[kPred] |= written[kPred] & (1u << d.guard);
        renamed[files.src1] |= written[files.src1] & (1u << d.src1);
        renamed[files.src2] |= written[files.src2] & (1u << d.src2);
        written[files.dst] |= 1u << d.dst;
    }
    // r0 and p0 always read as 0 / true, so they never need a shadow.
    renamed[kGpr] &= ~1u;
    renamed[kPred] &= ~1u;

    const auto copies = [&](bool in) {
        static constexpr Uop kCopy[] = {Uop::kCopyGpr, Uop::kCopyGpr,
                                        Uop::kCopyFpr, Uop::kCopyPred};
        for (RegFile file : {kGpr, kFpr, kPred}) {
            for (std::uint32_t bits = renamed[file]; bits;
                 bits &= bits - 1) {
                const auto real = std::uint8_t(std::countr_zero(bits));
                const auto shadow = std::uint8_t(kShadow + real);
                out.push_back({kCopy[file], isa::kPredTrue,
                               in ? shadow : real, in ? real : shadow, 0,
                               0});
            }
        }
    };
    copies(true);
    for (const auto &op : mop.ops()) {
        DecodedOp d = decodeOp(op);
        const RegFile file = operandFiles(d.uop).dst;
        const bool sink = d.dst == 0 && (file == kGpr || file == kPred);
        if (sink || (file != kNone && (renamed[file] >> d.dst & 1)))
            d.dst += kShadow;  // slot 32 is the r0/p0 sink
        out.push_back(d);
    }
    copies(false);
}

class Machine
{
  public:
    Machine(const isa::VliwProgram &program,
            const compiler::DataSegment &data,
            const EmulatorConfig &config)
        : program_(program), config_(config)
    {
        memory_.assign(config.memoryBytes, 0);
        TEPIC_ASSERT(data.base + data.bytes.size() <= memory_.size(),
                     "data segment does not fit in memory");
        if (!data.bytes.empty()) {
            std::memcpy(memory_.data() + data.base, data.bytes.data(),
                        data.bytes.size());
        }
        gpr_.fill(0);
        fpr_.fill(0.0);
        pred_.fill(false);
        pred_[isa::kPredTrue] = true;
        gpr_[isa::kRegSp] =
            std::int32_t(config.memoryBytes - 16);
        gpr_[isa::kRegLink] = std::int32_t(compiler::kHaltBlockId);
        decode();
    }

    EmulationResult
    run()
    {
        EmulationResult result;
        result.blockCounts.assign(blocks_.size(), 0);

        isa::BlockId cur = program_.entry();
        while (cur != compiler::kHaltBlockId) {
            TEPIC_ASSERT(cur < blocks_.size(),
                         "control transfer to bad block ", cur);
            const DecodedBlock &blk = blocks_[cur];
            ++result.dynamicBlocks;
            ++result.blockCounts[cur];
            // The count only grows and every block is finite, so one
            // check per block trips exactly when a per-MOP one would.
            result.dynamicMops += blk.numMops;
            result.dynamicOps += blk.numOps;
            if (result.dynamicMops > config_.maxMops)
                TEPIC_FATAL("emulated MOP budget exceeded (",
                            config_.maxMops, "): runaway program?");

            isa::BlockId next = blk.fallthrough;
            bool taken = false;
            executeBlock(cur, blk, next, taken);
            TEPIC_ASSERT(next != isa::kNoBlock,
                         "fell off block ", cur, " (",
                         program_.block(cur).label, ") with no successor");
            if (config_.recordTrace)
                result.trace.events.push_back({cur, next, taken});
            cur = next;
        }
        result.exitValue = gpr_[3];
        return result;
    }

  private:
    const isa::VliwProgram &program_;
    const EmulatorConfig &config_;
    std::vector<DecodedOp> ops_;
    std::vector<DecodedBlock> blocks_;
    std::vector<std::uint8_t> memory_;
    std::array<std::int32_t, kNumSlots> gpr_;
    std::array<double, kNumSlots> fpr_;
    std::array<bool, kNumSlots> pred_;

    /** Pre-decode every block of the program into ops_/blocks_. */
    void
    decode()
    {
        blocks_.reserve(program_.blocks().size());
        for (const auto &src : program_.blocks()) {
            DecodedBlock blk;
            blk.firstOp = std::uint32_t(ops_.size());
            for (const auto &mop : src.mops)
                decodeMop(mop, ops_);
            blk.endOp = std::uint32_t(ops_.size());
            blk.numMops = std::uint32_t(src.mops.size());
            blk.numOps = std::uint32_t(src.opCount());
            blk.fallthrough = src.fallthrough;
            blocks_.push_back(blk);
        }
    }

    // ---- memory helpers ----

    void
    checkAccess(std::uint32_t addr, unsigned size) const
    {
        TEPIC_ASSERT(addr % size == 0, "misaligned access at ", addr);
        TEPIC_ASSERT(std::size_t(addr) + size <= memory_.size(),
                     "memory access out of bounds at ", addr);
    }

    std::int32_t
    load32(std::uint32_t addr) const
    {
        checkAccess(addr, 4);
        std::int32_t v;
        std::memcpy(&v, memory_.data() + addr, 4);
        return v;
    }

    void
    store32(std::uint32_t addr, std::int32_t value)
    {
        checkAccess(addr, 4);
        std::memcpy(memory_.data() + addr, &value, 4);
    }

    double
    load64(std::uint32_t addr) const
    {
        checkAccess(addr, 8);
        double v;
        std::memcpy(&v, memory_.data() + addr, 8);
        return v;
    }

    void
    store64(std::uint32_t addr, double value)
    {
        checkAccess(addr, 8);
        std::memcpy(memory_.data() + addr, &value, 8);
    }

    // ---- execution ----

    static std::int32_t
    wrap32(std::int64_t v)
    {
        return std::int32_t(std::uint32_t(std::uint64_t(v)));
    }

    void
    executeBlock(isa::BlockId id, const DecodedBlock &blk,
                 isa::BlockId &next, bool &taken)
    {
        const DecodedOp *const end = ops_.data() + blk.endOp;
        for (const DecodedOp *op = ops_.data() + blk.firstOp; op != end;
             ++op) {
            if (!pred_[op->guard])
                continue;  // guard false: op is a NOP
            const std::int32_t a = gpr_[op->src1];
            const std::int32_t b = gpr_[op->src2];
            const double fa = fpr_[op->src1];
            const double fb = fpr_[op->src2];
            switch (op->uop) {
              case Uop::kAdd:
                gpr_[op->dst] = wrap32(std::int64_t(a) + b);
                break;
              case Uop::kSub:
                gpr_[op->dst] = wrap32(std::int64_t(a) - b);
                break;
              case Uop::kMul:
                gpr_[op->dst] = wrap32(std::int64_t(a) * b);
                break;
              case Uop::kDiv:
                TEPIC_ASSERT(b != 0, "division by zero in ",
                             program_.block(id).label);
                TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                             "integer overflow in division");
                gpr_[op->dst] = a / b;
                break;
              case Uop::kRem:
                TEPIC_ASSERT(b != 0, "remainder by zero in ",
                             program_.block(id).label);
                TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                             "integer overflow in remainder");
                gpr_[op->dst] = a % b;
                break;
              case Uop::kAnd: gpr_[op->dst] = a & b; break;
              case Uop::kOr: gpr_[op->dst] = a | b; break;
              case Uop::kXor: gpr_[op->dst] = a ^ b; break;
              case Uop::kShl:
                gpr_[op->dst] = wrap32(std::int64_t(a) << (b & 31));
                break;
              case Uop::kShr:
                gpr_[op->dst] =
                    std::int32_t(std::uint32_t(a) >> (b & 31));
                break;
              case Uop::kSra: gpr_[op->dst] = a >> (b & 31); break;
              case Uop::kMov:
              case Uop::kCopyGpr:
                gpr_[op->dst] = a;
                break;
              case Uop::kCmppEq: pred_[op->dst] = a == b; break;
              case Uop::kCmppNe: pred_[op->dst] = a != b; break;
              case Uop::kCmppLt: pred_[op->dst] = a < b; break;
              case Uop::kCmppLe: pred_[op->dst] = a <= b; break;
              case Uop::kCmppGt: pred_[op->dst] = a > b; break;
              case Uop::kCmppGe: pred_[op->dst] = a >= b; break;
              case Uop::kLdi: gpr_[op->dst] = op->imm; break;
              case Uop::kFadd: fpr_[op->dst] = fa + fb; break;
              case Uop::kFsub: fpr_[op->dst] = fa - fb; break;
              case Uop::kFmul: fpr_[op->dst] = fa * fb; break;
              case Uop::kFdiv: fpr_[op->dst] = fa / fb; break;
              case Uop::kFmov:
              case Uop::kCopyFpr:
                fpr_[op->dst] = fa;
                break;
              case Uop::kItof: fpr_[op->dst] = double(a); break;
              case Uop::kFtoi: {
                std::int32_t r = 0;
                if (std::isfinite(fa) &&
                    fa >= double(std::numeric_limits<
                                 std::int32_t>::min()) &&
                    fa <= double(std::numeric_limits<
                                 std::int32_t>::max())) {
                    r = std::int32_t(fa);
                }
                gpr_[op->dst] = r;
                break;
              }
              case Uop::kFcmppEq: pred_[op->dst] = fa == fb; break;
              case Uop::kFcmppLt: pred_[op->dst] = fa < fb; break;
              case Uop::kFcmppLe: pred_[op->dst] = fa <= fb; break;
              case Uop::kCopyPred: pred_[op->dst] = pred_[op->src1]; break;
              case Uop::kLoad:
                gpr_[op->dst] = load32(std::uint32_t(a));
                break;
              case Uop::kFload:
                fpr_[op->dst] = load64(std::uint32_t(a));
                break;
              case Uop::kStore: store32(std::uint32_t(a), b); break;
              case Uop::kFstore: store64(std::uint32_t(a), fb); break;
              case Uop::kBr:
                next = isa::BlockId(op->imm);
                taken = true;
                break;
              case Uop::kBrcf:
                if (!pred_[op->src1]) {
                    next = isa::BlockId(op->imm);
                    taken = true;
                }
                break;
              case Uop::kCall:
                gpr_[op->dst] = std::int32_t(blk.fallthrough);
                next = isa::BlockId(op->imm);
                taken = true;
                break;
              case Uop::kRet:
                TEPIC_ASSERT(a >= 0, "bad return address ", a);
                next = isa::BlockId(a);
                taken = true;
                break;
              case Uop::kBrlc:
                gpr_[op->dst] = wrap32(std::int64_t(a) - 1);
                if (gpr_[op->dst] != 0) {
                    next = isa::BlockId(op->imm);
                    taken = true;
                }
                break;
            }
        }
    }
};

} // namespace

EmulationResult
emulate(const isa::VliwProgram &program,
        const compiler::DataSegment &data, const EmulatorConfig &config)
{
    Machine machine(program, data, config);
    return machine.run();
}

} // namespace tepic::sim
