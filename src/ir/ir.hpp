// Three-address intermediate representation.
//
// Virtual registers are function-frame locals: a register may be assigned
// in several basic blocks and read after a control-flow join (no SSA, no
// phi nodes). At -O0, every named scalar variable lives in a memory slot
// accessed through LoadVar/StoreVar — exactly the spilled code GCC -O0
// emits; the PromoteVars pass (enabled from -O1) rewrites slots into
// dedicated registers, which is the biggest single win, as in real
// compilers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pdc::ir {

enum class Op {
  // constants & moves
  ConstI, ConstF, Mov,
  // integer arithmetic
  AddI, SubI, MulI, DivI, ModI, NegI,
  // float arithmetic
  AddF, SubF, MulF, DivF, NegF,
  // comparisons (result: I64 0/1)
  LtI, LeI, GtI, GeI, EqI, NeI,
  LtF, LeF, GtF, GeF, EqF, NeF,
  // logic on 0/1 ints
  NotI, BoolI,  // BoolI: dst = (a != 0)
  // conversions
  I2F,
  // scalar variable slots (memory at -O0)
  LoadVar, StoreVar,
  // arrays
  AllocArr, LoadIdx, StoreIdx, ArrLen,
  // control flow (terminators)
  Jump, CJump, Ret,
  // calls
  Call,
  // instrumentation markers (vPAPI)
  BlockBegin, BlockEnd, IterMark,
};

const char* op_name(Op op);
bool is_terminator(Op op);
/// Pure operations have no side effects and produce dst solely from
/// operands (candidates for folding, CSE, DCE, LICM).
bool is_pure(Op op);

enum class IrType { I64, F64 };

struct Instr {
  Op op;
  IrType type = IrType::I64;  // result type where applicable
  int dst = -1;               // virtual register
  int a = -1, b = -1;         // operand registers
  long long imm_i = 0;        // ConstI
  double imm_f = 0;           // ConstF
  int slot = -1;              // LoadVar/StoreVar scalar slot, Alloc/*Idx array slot
  std::string sym;            // call target / diagnostics
  std::vector<int> args;      // call argument registers
  int t1 = -1, t2 = -1;       // Jump: t1; CJump: t1 (true), t2 (false)
};

struct BasicBlock {
  int id = 0;
  std::vector<Instr> instrs;  // last one is the terminator

  const Instr& terminator() const { return instrs.back(); }
};

/// A scalar variable slot (memory home of a named variable at -O0).
struct VarSlot {
  std::string name;
  IrType type = IrType::I64;
  bool is_param = false;
  int param_index = -1;
};

/// An array slot: created by AllocArr or bound to an array parameter.
struct ArrSlot {
  std::string name;
  IrType elem = IrType::F64;
  bool is_param = false;
  int param_index = -1;
};

struct IrFunction {
  std::string name;
  bool returns_value = false;
  IrType ret_type = IrType::I64;
  int num_params = 0;
  std::vector<VarSlot> var_slots;
  std::vector<ArrSlot> arr_slots;
  std::vector<BasicBlock> blocks;  // entry is blocks[0]
  int num_regs = 0;

  int new_reg() { return num_regs++; }

  /// Successor block ids of block `b`.
  std::vector<int> successors(int b) const;
  /// Total instruction count (static size; the Os pipeline minimizes it).
  std::size_t instr_count() const;
};

struct IrProgram {
  std::vector<IrFunction> functions;

  IrFunction* find(const std::string& name);
  const IrFunction* find(const std::string& name) const;
  std::size_t instr_count() const;
};

}  // namespace pdc::ir
