#include "sim/emulator.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
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

enum RegFile : std::uint8_t { kNone, kGpr, kFpr, kPred };

/**
 * Every micro-op, listed once: X(name, dst file, src1 file, src2 file).
 * One dispatch id per (format, opcode) pair, in opcode order within
 * each format (uopFor() relies on it), plus the shadow-slot copies and
 * the end-of-block sentinel. `brct` decodes to kBr (its guard is the
 * condition); `brcf` runs unguarded and tests its predicate as src1.
 */
#define TEPIC_UOPS(X)                                                       \
    X(Add, kGpr, kGpr, kGpr) X(Sub, kGpr, kGpr, kGpr)                       \
    X(Mul, kGpr, kGpr, kGpr) X(Div, kGpr, kGpr, kGpr)                       \
    X(Rem, kGpr, kGpr, kGpr) X(And, kGpr, kGpr, kGpr)                       \
    X(Or, kGpr, kGpr, kGpr) X(Xor, kGpr, kGpr, kGpr)                        \
    X(Shl, kGpr, kGpr, kGpr) X(Shr, kGpr, kGpr, kGpr)                       \
    X(Sra, kGpr, kGpr, kGpr) X(Mov, kGpr, kGpr, kNone)                      \
    X(CmppEq, kPred, kGpr, kGpr) X(CmppNe, kPred, kGpr, kGpr)               \
    X(CmppLt, kPred, kGpr, kGpr) X(CmppLe, kPred, kGpr, kGpr)               \
    X(CmppGt, kPred, kGpr, kGpr) X(CmppGe, kPred, kGpr, kGpr)               \
    X(Ldi, kGpr, kNone, kNone)                                              \
    X(Fadd, kFpr, kFpr, kFpr) X(Fsub, kFpr, kFpr, kFpr)                     \
    X(Fmul, kFpr, kFpr, kFpr) X(Fdiv, kFpr, kFpr, kFpr)                     \
    X(Fmov, kFpr, kFpr, kNone) X(Itof, kFpr, kGpr, kNone)                   \
    X(Ftoi, kGpr, kFpr, kNone)                                              \
    X(FcmppEq, kPred, kFpr, kFpr) X(FcmppLt, kPred, kFpr, kFpr)             \
    X(FcmppLe, kPred, kFpr, kFpr)                                           \
    X(Load, kGpr, kGpr, kNone) X(Fload, kFpr, kGpr, kNone)                  \
    X(Store, kNone, kGpr, kGpr) X(Fstore, kNone, kGpr, kFpr)                \
    X(Br, kNone, kNone, kNone) X(Brcf, kNone, kPred, kNone)                 \
    X(Call, kGpr, kNone, kNone) X(Ret, kNone, kGpr, kNone)                  \
    X(Brlc, kGpr, kGpr, kNone)                                              \
    X(CopyGpr, kGpr, kGpr, kNone) X(CopyFpr, kFpr, kFpr, kNone)             \
    X(CopyPred, kPred, kPred, kNone) X(End, kNone, kNone, kNone)

enum class Uop : std::uint8_t {
#define TEPIC_UOP_ENUM(name, dst, src1, src2) k##name,
    TEPIC_UOPS(TEPIC_UOP_ENUM)
#undef TEPIC_UOP_ENUM
};

#define TEPIC_UOP_COUNT(name, dst, src1, src2) +1
constexpr std::size_t kNumUops = 0 TEPIC_UOPS(TEPIC_UOP_COUNT);
#undef TEPIC_UOP_COUNT

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

/**
 * A block's slice of the decoded stream, which ends in a kEnd
 * sentinel (guard p0, so it always runs).
 */
struct DecodedBlock
{
    std::uint32_t firstOp = 0;
    std::uint32_t numMops = 0;
    std::uint32_t numOps = 0;
    isa::BlockId fallthrough = isa::kNoBlock;
};

/** Which register file each operand of a micro-op names. */
struct OperandFiles
{
    RegFile dst, src1, src2;
};

OperandFiles
operandFiles(Uop uop)
{
    static constexpr OperandFiles kFiles[] = {
#define TEPIC_UOP_FILES(name, dst, src1, src2) {dst, src1, src2},
        TEPIC_UOPS(TEPIC_UOP_FILES)
#undef TEPIC_UOP_FILES
    };
    static_assert(std::size(kFiles) == kNumUops);
    return kFiles[std::size_t(uop)];
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
        TEPIC_ASSERT(program.blocks().size() <= TraceView::kMaxBlocks,
                     "program has ", program.blocks().size(),
                     " blocks, more than a trace word holds");
        memory_.assign(kMemoryBytes, 0);
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
        gpr_[isa::kRegSp] = std::int32_t(kMemoryBytes - 16);
        gpr_[isa::kRegLink] = std::int32_t(compiler::kHaltBlockId);
        decode();
    }

    EmulationResult run();

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
            ops_.push_back({Uop::kEnd, isa::kPredTrue, 0, 0, 0, 0});
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

    static std::int32_t
    wrap32(std::int64_t v)
    {
        return std::int32_t(std::uint32_t(std::uint64_t(v)));
    }
};

/*
 * Token-threaded dispatch: every handler ends by skipping the ops
 * whose guard is false and jumping straight to the next op's handler;
 * the kEnd sentinel closes the block and enters the next one. The
 * jump is the only part that differs by compiler: labels-as-values
 * under GNU C++, a switch re-entered per op elsewhere.
 */
#if defined(__GNUC__)
#define TEPIC_UOP_LABEL(name, dst, src1, src2) &&op_##name,
#define TEPIC_DISPATCH_TABLE                                                \
    static const void *const kTable[] = {TEPIC_UOPS(TEPIC_UOP_LABEL)};     \
    static_assert(std::size(kTable) == kNumUops,                            \
                  "one dispatch entry per Uop")
#define TEPIC_OP(name) op_##name:
#define TEPIC_DISPATCH_BEGIN
#define TEPIC_DISPATCH_END
#define TEPIC_JUMP() goto *kTable[std::size_t(op->uop)]
#else
#define TEPIC_DISPATCH_TABLE static_assert(true)
#define TEPIC_OP(name) case Uop::k##name:
#define TEPIC_DISPATCH_BEGIN dispatch: switch (op->uop) {
#define TEPIC_DISPATCH_END } TEPIC_PANIC("bad micro-op");
#define TEPIC_JUMP() goto dispatch
#endif

#define TEPIC_DISPATCH()                                                    \
    do {                                                                    \
        while (!pred[op->guard])                                            \
            ++op;  /* guard false: the op is a NOP */                       \
        TEPIC_JUMP();                                                       \
    } while (0)
#define TEPIC_NEXT()                                                        \
    do {                                                                    \
        ++op;                                                               \
        TEPIC_DISPATCH();                                                   \
    } while (0)

EmulationResult
Machine::run()
{
    TEPIC_DISPATCH_TABLE;
    EmulationResult result;
    result.blockCounts.assign(blocks_.size(), 0);

    std::int32_t *const gpr = gpr_.data();
    double *const fpr = fpr_.data();
    bool *const pred = pred_.data();
    const DecodedOp *const ops = ops_.data();
    const bool record_trace = config_.recordTrace;
    isa::BlockId cur = program_.entry();
    const DecodedBlock *blk = nullptr;
    const DecodedOp *op = nullptr;
    isa::BlockId next = isa::kNoBlock;
    bool taken = false;

enter_block:
    if (cur == compiler::kHaltBlockId) {
        result.exitValue = gpr[3];
        // Only the MOP count feeds the per-block budget check; the
        // block and op totals follow from the per-block counts.
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            result.dynamicBlocks += result.blockCounts[b];
            result.dynamicOps += result.blockCounts[b] * blocks_[b].numOps;
        }
        return result;
    }
    TEPIC_ASSERT(cur < blocks_.size(), "control transfer to bad block ",
                 cur);
    blk = &blocks_[cur];
    ++result.blockCounts[cur];
    // The count only grows and every block is finite, so one check per
    // block trips exactly when a per-MOP one would.
    result.dynamicMops += blk->numMops;
    if (result.dynamicMops > config_.maxMops)
        TEPIC_FATAL("emulated MOP budget exceeded (", config_.maxMops,
                    "): runaway program?");
    next = blk->fallthrough;
    taken = false;
    op = ops + blk->firstOp;
    TEPIC_DISPATCH();

    TEPIC_DISPATCH_BEGIN
    TEPIC_OP(Add) {
        gpr[op->dst] = wrap32(std::int64_t(gpr[op->src1]) + gpr[op->src2]);
        TEPIC_NEXT();
    }
    TEPIC_OP(Sub) {
        gpr[op->dst] = wrap32(std::int64_t(gpr[op->src1]) - gpr[op->src2]);
        TEPIC_NEXT();
    }
    TEPIC_OP(Mul) {
        gpr[op->dst] = wrap32(std::int64_t(gpr[op->src1]) * gpr[op->src2]);
        TEPIC_NEXT();
    }
    TEPIC_OP(Div) {
        const std::int32_t a = gpr[op->src1], b = gpr[op->src2];
        TEPIC_ASSERT(b != 0, "division by zero in ",
                     program_.block(cur).label);
        TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                     "integer overflow in division");
        gpr[op->dst] = a / b;
        TEPIC_NEXT();
    }
    TEPIC_OP(Rem) {
        const std::int32_t a = gpr[op->src1], b = gpr[op->src2];
        TEPIC_ASSERT(b != 0, "remainder by zero in ",
                     program_.block(cur).label);
        TEPIC_ASSERT(!(a == INT32_MIN && b == -1),
                     "integer overflow in remainder");
        gpr[op->dst] = a % b;
        TEPIC_NEXT();
    }
    TEPIC_OP(And) {
        gpr[op->dst] = gpr[op->src1] & gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Or) {
        gpr[op->dst] = gpr[op->src1] | gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Xor) {
        gpr[op->dst] = gpr[op->src1] ^ gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Shl) {
        gpr[op->dst] =
            wrap32(std::int64_t(gpr[op->src1]) << (gpr[op->src2] & 31));
        TEPIC_NEXT();
    }
    TEPIC_OP(Shr) {
        gpr[op->dst] = std::int32_t(std::uint32_t(gpr[op->src1]) >>
                                    (gpr[op->src2] & 31));
        TEPIC_NEXT();
    }
    TEPIC_OP(Sra) {
        gpr[op->dst] = gpr[op->src1] >> (gpr[op->src2] & 31);
        TEPIC_NEXT();
    }
    TEPIC_OP(Mov)
    TEPIC_OP(CopyGpr) {
        gpr[op->dst] = gpr[op->src1];
        TEPIC_NEXT();
    }
    TEPIC_OP(CmppEq) {
        pred[op->dst] = gpr[op->src1] == gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(CmppNe) {
        pred[op->dst] = gpr[op->src1] != gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(CmppLt) {
        pred[op->dst] = gpr[op->src1] < gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(CmppLe) {
        pred[op->dst] = gpr[op->src1] <= gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(CmppGt) {
        pred[op->dst] = gpr[op->src1] > gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(CmppGe) {
        pred[op->dst] = gpr[op->src1] >= gpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Ldi) {
        gpr[op->dst] = op->imm;
        TEPIC_NEXT();
    }
    TEPIC_OP(Fadd) {
        fpr[op->dst] = fpr[op->src1] + fpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Fsub) {
        fpr[op->dst] = fpr[op->src1] - fpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Fmul) {
        fpr[op->dst] = fpr[op->src1] * fpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Fdiv) {
        fpr[op->dst] = fpr[op->src1] / fpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(Fmov)
    TEPIC_OP(CopyFpr) {
        fpr[op->dst] = fpr[op->src1];
        TEPIC_NEXT();
    }
    TEPIC_OP(Itof) {
        fpr[op->dst] = double(gpr[op->src1]);
        TEPIC_NEXT();
    }
    TEPIC_OP(Ftoi) {
        const double fa = fpr[op->src1];
        std::int32_t r = 0;
        if (std::isfinite(fa) &&
            fa >= double(std::numeric_limits<std::int32_t>::min()) &&
            fa <= double(std::numeric_limits<std::int32_t>::max())) {
            r = std::int32_t(fa);
        }
        gpr[op->dst] = r;
        TEPIC_NEXT();
    }
    TEPIC_OP(FcmppEq) {
        pred[op->dst] = fpr[op->src1] == fpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(FcmppLt) {
        pred[op->dst] = fpr[op->src1] < fpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(FcmppLe) {
        pred[op->dst] = fpr[op->src1] <= fpr[op->src2];
        TEPIC_NEXT();
    }
    TEPIC_OP(CopyPred) {
        pred[op->dst] = pred[op->src1];
        TEPIC_NEXT();
    }
    TEPIC_OP(Load) {
        gpr[op->dst] = load32(std::uint32_t(gpr[op->src1]));
        TEPIC_NEXT();
    }
    TEPIC_OP(Fload) {
        fpr[op->dst] = load64(std::uint32_t(gpr[op->src1]));
        TEPIC_NEXT();
    }
    TEPIC_OP(Store) {
        store32(std::uint32_t(gpr[op->src1]), gpr[op->src2]);
        TEPIC_NEXT();
    }
    TEPIC_OP(Fstore) {
        store64(std::uint32_t(gpr[op->src1]), fpr[op->src2]);
        TEPIC_NEXT();
    }
    TEPIC_OP(Br) {
        next = isa::BlockId(op->imm);
        taken = true;
        TEPIC_NEXT();
    }
    TEPIC_OP(Brcf) {
        if (!pred[op->src1]) {
            next = isa::BlockId(op->imm);
            taken = true;
        }
        TEPIC_NEXT();
    }
    TEPIC_OP(Call) {
        gpr[op->dst] = std::int32_t(blk->fallthrough);
        next = isa::BlockId(op->imm);
        taken = true;
        TEPIC_NEXT();
    }
    TEPIC_OP(Ret) {
        const std::int32_t a = gpr[op->src1];
        TEPIC_ASSERT(a >= 0, "bad return address ", a);
        next = isa::BlockId(a);
        taken = true;
        TEPIC_NEXT();
    }
    TEPIC_OP(Brlc) {
        const std::int32_t count = wrap32(std::int64_t(gpr[op->src1]) - 1);
        gpr[op->dst] = count;
        if (count != 0) {
            next = isa::BlockId(op->imm);
            taken = true;
        }
        TEPIC_NEXT();
    }
    TEPIC_OP(End) {
        TEPIC_ASSERT(next != isa::kNoBlock, "fell off block ", cur, " (",
                     program_.block(cur).label, ") with no successor");
        if (record_trace)
            result.trace.push(cur, taken);
        cur = next;
        goto enter_block;
    }
    TEPIC_DISPATCH_END
}

#undef TEPIC_NEXT
#undef TEPIC_DISPATCH
#undef TEPIC_JUMP
#undef TEPIC_DISPATCH_END
#undef TEPIC_DISPATCH_BEGIN
#undef TEPIC_OP
#undef TEPIC_DISPATCH_TABLE
#undef TEPIC_UOP_LABEL
#undef TEPIC_UOPS

} // namespace

EmulationResult
emulate(const isa::VliwProgram &program,
        const compiler::DataSegment &data, const EmulatorConfig &config)
{
    Machine machine(program, data, config);
    return machine.run();
}

} // namespace tepic::sim
