#include "vm/vm.hpp"

#include <cmath>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>

#include "ir/lower.hpp"

namespace pdc::vm {

using ir::Instr;
using ir::IrFunction;
using ir::IrType;
using ir::Op;

CostModel CostModel::default_model() {
  // Cycle costs in the spirit of the paper's 3 GHz Xeon EM64T (Netburst/
  // early Core era): cheap int ALU, 3-5 cycle FP add/mul, ~20 cycle
  // divisions, L1-hit memory ops, and a measurable PAPI read cost for the
  // instrumentation markers.
  CostModel m;
  auto set = [&m](Op op, double c) { m.set_op_cost(op, c); };
  set(Op::ConstI, 1);
  set(Op::ConstF, 1);
  set(Op::Mov, 1);
  set(Op::AddI, 1);
  set(Op::SubI, 1);
  set(Op::MulI, 3);
  set(Op::DivI, 22);
  set(Op::ModI, 22);
  set(Op::NegI, 1);
  set(Op::AddF, 3);
  set(Op::SubF, 3);
  set(Op::MulF, 5);
  set(Op::DivF, 22);
  set(Op::NegF, 2);
  set(Op::LtI, 1);
  set(Op::LeI, 1);
  set(Op::GtI, 1);
  set(Op::GeI, 1);
  set(Op::EqI, 1);
  set(Op::NeI, 1);
  set(Op::LtF, 2);
  set(Op::LeF, 2);
  set(Op::GtF, 2);
  set(Op::GeF, 2);
  set(Op::EqF, 2);
  set(Op::NeF, 2);
  set(Op::NotI, 1);
  set(Op::BoolI, 1);
  set(Op::I2F, 4);
  set(Op::LoadVar, 3);
  set(Op::StoreVar, 3);
  set(Op::AllocArr, 0);  // cost charged via alloc_base/alloc_per_elem
  set(Op::LoadIdx, 4);
  set(Op::StoreIdx, 4);
  set(Op::ArrLen, 1);
  set(Op::Jump, 1);
  set(Op::CJump, 2);
  set(Op::Ret, 2);
  set(Op::Call, 0);  // charged via call_overhead and builtin costs
  set(Op::BlockBegin, 40);
  set(Op::BlockEnd, 40);
  set(Op::IterMark, 2);
  auto builtin = [&m](Builtin b, double c) { m.builtin_cost_[static_cast<std::size_t>(b)] = c; };
  builtin(Builtin::Sqrt, 30);
  builtin(Builtin::Fabs, 2);
  builtin(Builtin::Fmax, 3);
  builtin(Builtin::Fmin, 3);
  builtin(Builtin::Floor, 3);
  builtin(Builtin::Rank, 4);
  builtin(Builtin::Nprocs, 4);
  builtin(Builtin::Param, 4);
  builtin(Builtin::ParamF, 4);
  builtin(Builtin::Send, 400);
  builtin(Builtin::Recv, 400);
  builtin(Builtin::AllreduceMax, 400);
  return m;
}

namespace {

/// The builtin called `name`, or nullopt for a user function.
std::optional<Builtin> builtin_named(std::string_view name) {
  static constexpr std::pair<std::string_view, Builtin> kNames[] = {
      {"sqrt", Builtin::Sqrt},         {"fabs", Builtin::Fabs},
      {"fmax", Builtin::Fmax},         {"fmin", Builtin::Fmin},
      {"floor", Builtin::Floor},       {"p2p_rank", Builtin::Rank},
      {"p2p_nprocs", Builtin::Nprocs}, {"p2p_param", Builtin::Param},
      {"p2p_param_f", Builtin::ParamF}, {"p2p_send", Builtin::Send},
      {"p2p_recv", Builtin::Recv},     {"p2p_allreduce_max", Builtin::AllreduceMax},
  };
  static_assert(std::size(kNames) == kBuiltinCount);
  for (const auto& [n, b] : kNames)
    if (n == name) return b;
  return std::nullopt;
}

/// True for the instructions that end a run: the terminators and every
/// instruction after which something may read cycles().
bool ends_run(Op op) {
  switch (op) {
    case Op::BlockBegin:
    case Op::BlockEnd:
    case Op::IterMark:
    case Op::Call:
    case Op::AllocArr:
      return true;
    default:
      return ir::is_terminator(op);
  }
}

}  // namespace

Vm::Vm(const ir::IrProgram& program, CostModel model)
    : prog_(&program),
      fns_(program.functions.size()),
      model_(std::move(model)),
      hooks_(&default_hooks_) {
  default_hooks_.vm_ = this;
  for (std::size_t k = 0; k < fns_.size(); ++k) decode(k);
}

void Vm::decode(std::size_t index) {
  const IrFunction& f = prog_->functions[index];
  Fn& fn = fns_[index];
  fn.ir = &f;
  if (f.blocks.empty()) throw TrapError("function '" + f.name + "' has no blocks");
  std::vector<int> block_at(f.blocks.size());
  std::size_t size = 0;
  for (std::size_t b = 0; b < f.blocks.size(); ++b) {
    const std::vector<Instr>& instrs = f.blocks[b].instrs;
    if (instrs.empty() || !ir::is_terminator(instrs.back().op))
      throw TrapError("in '" + f.name + "': block " + std::to_string(b) +
                      " does not end in a terminator");
    block_at[b] = static_cast<int>(size);
    size += instrs.size();
  }
  auto target = [&](int block) {
    if (block < 0 || static_cast<std::size_t>(block) >= block_at.size())
      throw TrapError("in '" + f.name + "': jump to missing block " + std::to_string(block));
    return block_at[static_cast<std::size_t>(block)];
  };

  fn.code.reserve(size);
  for (const ir::BasicBlock& block : f.blocks) {
    for (const Instr& in : block.instrs) {
      Code c;
      c.op = in.op;
      c.dst = in.dst;
      c.a = in.a;
      c.b = in.b;
      c.slot = in.slot;
      c.ir = &in;
      if (in.op == Op::ConstF)
        c.imm_f = in.imm_f;
      else
        c.imm_i = in.imm_i;
      if (in.op == Op::Jump || in.op == Op::CJump) c.t1 = target(in.t1);
      if (in.op == Op::CJump) c.t2 = target(in.t2);
      if (in.op == Op::Call) {
        if (const std::optional<Builtin> b = builtin_named(in.sym)) {
          c.is_builtin = true;
          c.builtin = *b;
        } else if (const IrFunction* callee = prog_->find(in.sym)) {
          c.callee = &fns_[static_cast<std::size_t>(callee - prog_->functions.data())];
        }
      }
      fn.code.push_back(c);
    }
  }

  // Fuse a Mov with the Jump after it, and a comparison (LtI..NeF are
  // contiguous in ir::Op) with the CJump that tests it: the pair runs as one
  // dispatch. Both sit in one run, so the charged costs and counts do not
  // change.
  for (std::size_t i = 0; i + 1 < size; ++i) {
    Code& c = fn.code[i];
    const Code& next = fn.code[i + 1];
    if (c.op == Op::Mov && next.op == Op::Jump) c.t1 = next.t1;
    if (c.op >= Op::LtI && c.op <= Op::NeF && next.op == Op::CJump && next.a == c.dst) {
      c.t1 = next.t1;
      c.t2 = next.t2;
    }
  }

  // Every block ends in a terminator, so every block starts a run.
  std::size_t head = 0;
  for (std::size_t i = 0; i < size; ++i) {
    ++fn.code[head].run_len;
    fn.code[head].run_cost += model_.op_cost(fn.code[i].op);
    if (ends_run(fn.code[i].op)) head = i + 1;
  }
}

void Vm::set_hooks(CommHooks* hooks) {
  hooks_ = hooks != nullptr ? hooks : &default_hooks_;
  hooks_->vm_ = this;
}

Value Vm::call(const std::string& name, const std::vector<Value>& args) {
  const IrFunction* fn = prog_->find(name);
  if (fn == nullptr) throw TrapError("call to unknown function '" + name + "'");
  return exec(fns_[static_cast<std::size_t>(fn - prog_->functions.data())], args,
              std::vector<std::shared_ptr<ArrayObj>>(static_cast<std::size_t>(fn->num_params),
                                                     nullptr),
              0);
}

long long Vm::run_main() { return call("main").i; }

Value Vm::exec(const Fn& fn, std::vector<Value> scalar_args,
               std::vector<std::shared_ptr<ArrayObj>> array_args, int depth) {
  const IrFunction& f = *fn.ir;
  if (depth > 200) throw TrapError("call depth limit exceeded in '" + f.name + "'");

  std::vector<Value> regs(static_cast<std::size_t>(f.num_regs));
  std::vector<Value> vars(f.var_slots.size());
  std::vector<std::shared_ptr<ArrayObj>> arrays(f.arr_slots.size());

  // Scalar args land in registers 0..num_params-1 (lowering convention);
  // array slots with a param index bind to the caller's objects.
  for (std::size_t i = 0; i < scalar_args.size() && i < regs.size(); ++i)
    regs[i] = scalar_args[i];
  for (std::size_t s = 0; s < f.arr_slots.size(); ++s) {
    const auto& slot = f.arr_slots[s];
    if (slot.is_param) {
      auto& bound = array_args[static_cast<std::size_t>(slot.param_index)];
      if (!bound)
        throw TrapError("array parameter '" + slot.name + "' of '" + f.name + "' not bound");
      arrays[s] = bound;
    }
  }

  auto trap = [&](const std::string& msg) -> TrapError {
    return TrapError("in '" + f.name + "': " + msg);
  };
  auto array_at = [&](int slot) -> ArrayObj& {
    auto& p = arrays[static_cast<std::size_t>(slot)];
    if (!p) throw trap("use of unallocated array '" +
                       f.arr_slots[static_cast<std::size_t>(slot)].name + "'");
    return *p;
  };
  auto out_of_bounds = [&](int slot, long long idx, std::size_t size) {
    return trap("index " + std::to_string(idx) + " out of bounds for '" +
                f.arr_slots[static_cast<std::size_t>(slot)].name + "' (size " +
                std::to_string(size) + ")");
  };

  const Code* const code = fn.code.data();
  Value* const r = regs.data();
  Value* const v = vars.data();
  // Charges the run starting at `head`.
  auto charge = [&](const Code* head) {
    cycles_ += head->run_cost;
    papi_.instructions += head->run_len;
    if (cycles_ > cycle_limit_) [[unlikely]]
      throw trap("cycle limit exceeded");
  };

  const Code* in = code;
  charge(in);
  while (true) {
    switch (in->op) {
      case Op::ConstI: r[in->dst].i = in->imm_i; break;
      case Op::ConstF: r[in->dst].f = in->imm_f; break;
      case Op::Mov:
        r[in->dst] = r[in->a];
        if (in->t1 >= 0) {
          in = code + in->t1;
          charge(in);
          continue;
        }
        break;

#define RI(x) r[x].i
#define RF(x) r[x].f
// A comparison fused with its CJump (t1 set) branches on the result.
#define COMPARE(expr)                            \
  {                                              \
    const bool taken = (expr);                   \
    RI(in->dst) = taken;                         \
    if (in->t1 >= 0) {                           \
      in = code + (taken ? in->t1 : in->t2);     \
      charge(in);                                \
      continue;                                  \
    }                                            \
  }
      case Op::AddI: RI(in->dst) = RI(in->a) + RI(in->b); break;
      case Op::SubI: RI(in->dst) = RI(in->a) - RI(in->b); break;
      case Op::MulI: RI(in->dst) = RI(in->a) * RI(in->b); break;
      case Op::DivI:
        if (RI(in->b) == 0) throw trap("integer division by zero");
        RI(in->dst) = RI(in->a) / RI(in->b);
        break;
      case Op::ModI:
        if (RI(in->b) == 0) throw trap("integer modulo by zero");
        RI(in->dst) = RI(in->a) % RI(in->b);
        break;
      case Op::NegI: RI(in->dst) = -RI(in->a); break;
      case Op::AddF: RF(in->dst) = RF(in->a) + RF(in->b); break;
      case Op::SubF: RF(in->dst) = RF(in->a) - RF(in->b); break;
      case Op::MulF: RF(in->dst) = RF(in->a) * RF(in->b); break;
      case Op::DivF: RF(in->dst) = RF(in->a) / RF(in->b); break;
      case Op::NegF: RF(in->dst) = -RF(in->a); break;
      case Op::LtI: COMPARE(RI(in->a) < RI(in->b)); break;
      case Op::LeI: COMPARE(RI(in->a) <= RI(in->b)); break;
      case Op::GtI: COMPARE(RI(in->a) > RI(in->b)); break;
      case Op::GeI: COMPARE(RI(in->a) >= RI(in->b)); break;
      case Op::EqI: COMPARE(RI(in->a) == RI(in->b)); break;
      case Op::NeI: COMPARE(RI(in->a) != RI(in->b)); break;
      case Op::LtF: COMPARE(RF(in->a) < RF(in->b)); break;
      case Op::LeF: COMPARE(RF(in->a) <= RF(in->b)); break;
      case Op::GtF: COMPARE(RF(in->a) > RF(in->b)); break;
      case Op::GeF: COMPARE(RF(in->a) >= RF(in->b)); break;
      case Op::EqF: COMPARE(RF(in->a) == RF(in->b)); break;
      case Op::NeF: COMPARE(RF(in->a) != RF(in->b)); break;
      case Op::NotI: RI(in->dst) = RI(in->a) == 0 ? 1 : 0; break;
      case Op::BoolI: RI(in->dst) = RI(in->a) != 0 ? 1 : 0; break;
      case Op::I2F: RF(in->dst) = static_cast<double>(RI(in->a)); break;

      case Op::LoadVar: r[in->dst] = v[in->slot]; break;
      case Op::StoreVar: v[in->slot] = r[in->a]; break;

      case Op::AllocArr: {
        const long long size = RI(in->a);
        if (size < 0) throw trap("negative array size");
        auto obj = std::make_shared<ArrayObj>();
        obj->elem = in->ir->type;
        obj->data.assign(static_cast<std::size_t>(size), Value{});
        arrays[static_cast<std::size_t>(in->slot)] = std::move(obj);
        cycles_ += model_.alloc_base + model_.alloc_per_elem * static_cast<double>(size);
        charge(in + 1);
        break;
      }
      case Op::LoadIdx: {
        ArrayObj& arr = array_at(in->slot);
        const long long idx = RI(in->a);
        if (idx < 0 || idx >= static_cast<long long>(arr.data.size()))
          throw out_of_bounds(in->slot, idx, arr.data.size());
        r[in->dst] = arr.data[static_cast<std::size_t>(idx)];
        break;
      }
      case Op::StoreIdx: {
        ArrayObj& arr = array_at(in->slot);
        const long long idx = RI(in->a);
        if (idx < 0 || idx >= static_cast<long long>(arr.data.size()))
          throw out_of_bounds(in->slot, idx, arr.data.size());
        arr.data[static_cast<std::size_t>(idx)] = r[in->b];
        break;
      }
      case Op::ArrLen:
        RI(in->dst) = static_cast<long long>(array_at(in->slot).data.size());
        break;

      case Op::Jump:
        in = code + in->t1;
        charge(in);
        continue;
      case Op::CJump:
        in = code + (RI(in->a) != 0 ? in->t1 : in->t2);
        charge(in);
        continue;
      case Op::Ret: {
        if (!block_stack_.empty() && depth == 0) block_stack_.clear();
        Value out;
        if (in->a >= 0) out = r[in->a];
        return out;
      }

      case Op::BlockBegin:
        block_stack_.emplace_back(static_cast<int>(in->imm_i), cycles_);
        charge(in + 1);
        break;
      case Op::BlockEnd: {
        if (block_stack_.empty() || block_stack_.back().first != in->imm_i)
          throw trap("mismatched dperf_block_end(" + std::to_string(in->imm_i) + ")");
        auto [id, start] = block_stack_.back();
        block_stack_.pop_back();
        auto& stat = papi_.blocks[id];
        ++stat.executions;
        stat.cycles += cycles_ - start;
        charge(in + 1);
        break;
      }
      case Op::IterMark:
        ++papi_.iter_marks;
        hooks_->iter_mark(in->imm_i);
        charge(in + 1);
        break;

      case Op::Call: {
        const std::vector<int>& args = in->ir->args;
        cycles_ += model_.call_overhead + model_.per_arg_cost * static_cast<double>(args.size());
        auto scalar = [&](std::size_t i) { return r[args[i]]; };
        if (in->is_builtin) {
          const double cost = model_.builtin_cost(in->builtin);
          switch (in->builtin) {
            case Builtin::Sqrt:
              RF(in->dst) = std::sqrt(scalar(0).f);
              cycles_ += cost;
              break;
            case Builtin::Fabs:
              RF(in->dst) = std::fabs(scalar(0).f);
              cycles_ += cost;
              break;
            case Builtin::Fmax:
              RF(in->dst) = std::fmax(scalar(0).f, scalar(1).f);
              cycles_ += cost;
              break;
            case Builtin::Fmin:
              RF(in->dst) = std::fmin(scalar(0).f, scalar(1).f);
              cycles_ += cost;
              break;
            case Builtin::Floor:
              RF(in->dst) = std::floor(scalar(0).f);
              cycles_ += cost;
              break;
            case Builtin::Rank:
              RI(in->dst) = hooks_->rank();
              cycles_ += cost;
              break;
            case Builtin::Nprocs:
              RI(in->dst) = hooks_->nprocs();
              cycles_ += cost;
              break;
            case Builtin::Param:
              RI(in->dst) = hooks_->param(static_cast<int>(scalar(0).i));
              cycles_ += cost;
              break;
            case Builtin::ParamF:
              RF(in->dst) = hooks_->param_f(static_cast<int>(scalar(0).i));
              cycles_ += cost;
              break;
            case Builtin::Send:
            case Builtin::Recv: {
              ArrayObj& arr = array_at(ir::decode_array_arg(args[2]));
              const long long off = scalar(3).i;
              const long long n = scalar(4).i;
              if (off < 0 || n < 0 || off + n > static_cast<long long>(arr.data.size()))
                throw trap("communication range [" + std::to_string(off) + ", " +
                           std::to_string(off + n) + ") out of bounds");
              cycles_ += cost;
              const int peer = static_cast<int>(scalar(0).i);
              const int tag = static_cast<int>(scalar(1).i);
              if (in->builtin == Builtin::Send)
                hooks_->send(peer, tag, arr, off, n);
              else
                hooks_->recv(peer, tag, arr, off, n);
              break;
            }
            case Builtin::AllreduceMax:
              cycles_ += cost;
              RF(in->dst) = hooks_->allreduce_max(scalar(0).f);
              break;
          }
        } else if (in->callee != nullptr) {
          std::vector<Value> call_args;
          std::vector<std::shared_ptr<ArrayObj>> call_arrays(args.size());
          for (std::size_t i = 0; i < args.size(); ++i) {
            if (ir::is_array_arg(args[i])) {
              call_args.push_back(Value{});
              call_arrays[i] = arrays[static_cast<std::size_t>(ir::decode_array_arg(args[i]))];
            } else {
              call_args.push_back(r[args[i]]);
            }
          }
          const Value out =
              exec(*in->callee, std::move(call_args), std::move(call_arrays), depth + 1);
          if (in->dst >= 0) r[in->dst] = out;
        } else {
          throw trap("call to unknown function '" + in->ir->sym + "'");
        }
        charge(in + 1);
        break;
      }
#undef RI
#undef RF
#undef COMPARE
    }
    ++in;
  }
}

}  // namespace pdc::vm
