#include "ir/ir.hpp"

namespace pdc::ir {

const char* op_name(Op op) {
  switch (op) {
    case Op::ConstI: return "consti";
    case Op::ConstF: return "constf";
    case Op::Mov: return "mov";
    case Op::AddI: return "addi";
    case Op::SubI: return "subi";
    case Op::MulI: return "muli";
    case Op::DivI: return "divi";
    case Op::ModI: return "modi";
    case Op::NegI: return "negi";
    case Op::AddF: return "addf";
    case Op::SubF: return "subf";
    case Op::MulF: return "mulf";
    case Op::DivF: return "divf";
    case Op::NegF: return "negf";
    case Op::LtI: return "lti";
    case Op::LeI: return "lei";
    case Op::GtI: return "gti";
    case Op::GeI: return "gei";
    case Op::EqI: return "eqi";
    case Op::NeI: return "nei";
    case Op::LtF: return "ltf";
    case Op::LeF: return "lef";
    case Op::GtF: return "gtf";
    case Op::GeF: return "gef";
    case Op::EqF: return "eqf";
    case Op::NeF: return "nef";
    case Op::NotI: return "noti";
    case Op::BoolI: return "booli";
    case Op::I2F: return "i2f";
    case Op::LoadVar: return "loadvar";
    case Op::StoreVar: return "storevar";
    case Op::AllocArr: return "allocarr";
    case Op::LoadIdx: return "loadidx";
    case Op::StoreIdx: return "storeidx";
    case Op::ArrLen: return "arrlen";
    case Op::Jump: return "jump";
    case Op::CJump: return "cjump";
    case Op::Ret: return "ret";
    case Op::Call: return "call";
    case Op::BlockBegin: return "blockbegin";
    case Op::BlockEnd: return "blockend";
    case Op::IterMark: return "itermark";
  }
  return "?";
}

bool is_terminator(Op op) { return op == Op::Jump || op == Op::CJump || op == Op::Ret; }

bool is_pure(Op op) {
  switch (op) {
    case Op::ConstI:
    case Op::ConstF:
    case Op::Mov:
    case Op::AddI:
    case Op::SubI:
    case Op::MulI:
    case Op::NegI:
    case Op::AddF:
    case Op::SubF:
    case Op::MulF:
    case Op::DivF:
    case Op::NegF:
    case Op::LtI:
    case Op::LeI:
    case Op::GtI:
    case Op::GeI:
    case Op::EqI:
    case Op::NeI:
    case Op::LtF:
    case Op::LeF:
    case Op::GtF:
    case Op::GeF:
    case Op::EqF:
    case Op::NeF:
    case Op::NotI:
    case Op::BoolI:
    case Op::I2F:
    case Op::ArrLen:
      return true;
    // DivI/ModI can trap on zero: not freely removable/hoistable.
    default:
      return false;
  }
}

std::vector<int> IrFunction::successors(int b) const {
  const Instr& t = blocks[static_cast<std::size_t>(b)].terminator();
  switch (t.op) {
    case Op::Jump: return {t.t1};
    case Op::CJump: return {t.t1, t.t2};
    default: return {};
  }
}

std::size_t IrFunction::instr_count() const {
  std::size_t n = 0;
  for (const BasicBlock& b : blocks) n += b.instrs.size();
  return n;
}

IrFunction* IrProgram::find(const std::string& name) {
  for (auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

const IrFunction* IrProgram::find(const std::string& name) const {
  for (const auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

std::size_t IrProgram::instr_count() const {
  std::size_t n = 0;
  for (const auto& f : functions) n += f.instr_count();
  return n;
}

}  // namespace pdc::ir
