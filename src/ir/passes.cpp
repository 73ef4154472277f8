#include "ir/passes.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "ir/cfg.hpp"
#include "ir/lower.hpp"

namespace pdc::ir {

namespace {

struct ConstVal {
  IrType type;
  long long i = 0;
  double f = 0;
};

std::optional<ConstVal> eval_unary(const Instr& in, const ConstVal& a) {
  ConstVal r;
  r.type = in.type;
  switch (in.op) {
    case Op::NegI: r.i = -a.i; return r;
    case Op::NegF: r.f = -a.f; return r;
    case Op::NotI: r.i = a.i == 0 ? 1 : 0; return r;
    case Op::BoolI: r.i = a.i != 0 ? 1 : 0; return r;
    case Op::I2F: r.f = static_cast<double>(a.i); return r;
    case Op::Mov:
      r = a;
      return r;
    default: return std::nullopt;
  }
}

std::optional<ConstVal> eval_binary(const Instr& in, const ConstVal& a, const ConstVal& b) {
  ConstVal r;
  r.type = in.type;
  switch (in.op) {
    case Op::AddI: r.i = a.i + b.i; return r;
    case Op::SubI: r.i = a.i - b.i; return r;
    case Op::MulI: r.i = a.i * b.i; return r;
    case Op::AddF: r.f = a.f + b.f; return r;
    case Op::SubF: r.f = a.f - b.f; return r;
    case Op::MulF: r.f = a.f * b.f; return r;
    case Op::DivF: r.f = a.f / b.f; return r;
    case Op::LtI: r.i = a.i < b.i; return r;
    case Op::LeI: r.i = a.i <= b.i; return r;
    case Op::GtI: r.i = a.i > b.i; return r;
    case Op::GeI: r.i = a.i >= b.i; return r;
    case Op::EqI: r.i = a.i == b.i; return r;
    case Op::NeI: r.i = a.i != b.i; return r;
    case Op::LtF: r.i = a.f < b.f; return r;
    case Op::LeF: r.i = a.f <= b.f; return r;
    case Op::GtF: r.i = a.f > b.f; return r;
    case Op::GeF: r.i = a.f >= b.f; return r;
    case Op::EqF: r.i = a.f == b.f; return r;
    case Op::NeF: r.i = a.f != b.f; return r;
    // DivI/ModI fold only when the divisor is non-zero (handled below).
    default: return std::nullopt;
  }
}

/// Instructions safely removable when their destination is dead. LoadIdx is
/// excluded: it can trap on out-of-bounds, and removal would hide the trap.
bool is_removable(const Instr& in) {
  return is_pure(in.op) || in.op == Op::ConstI || in.op == Op::ConstF ||
         in.op == Op::LoadVar;
}

struct Liveness {
  std::vector<std::vector<bool>> in, out;
};

Liveness compute_liveness(const IrFunction& fn) {
  const auto nblocks = fn.blocks.size();
  const auto nregs = static_cast<std::size_t>(fn.num_regs);
  Liveness lv;
  lv.in.assign(nblocks, std::vector<bool>(nregs, false));
  lv.out.assign(nblocks, std::vector<bool>(nregs, false));
  bool fixed = false;
  while (!fixed) {
    fixed = true;
    for (std::size_t b = nblocks; b-- > 0;) {
      std::vector<bool> out(nregs, false);
      for (int s : fn.successors(static_cast<int>(b)))
        for (std::size_t r = 0; r < nregs; ++r)
          out[r] = out[r] || lv.in[static_cast<std::size_t>(s)][r];
      std::vector<bool> in_set = out;
      for (auto it = fn.blocks[b].instrs.rbegin(); it != fn.blocks[b].instrs.rend(); ++it) {
        if (it->dst >= 0) in_set[static_cast<std::size_t>(it->dst)] = false;
        auto mark = [&](int reg) {
          if (reg >= 0) in_set[static_cast<std::size_t>(reg)] = true;
        };
        mark(it->a);
        mark(it->b);
        for (int arg : it->args)
          if (!is_array_arg(arg)) mark(arg);
      }
      if (in_set != lv.in[b] || out != lv.out[b]) {
        lv.in[b] = std::move(in_set);
        lv.out[b] = std::move(out);
        fixed = false;
      }
    }
  }
  return lv;
}

}  // namespace

bool fold_constants(IrFunction& fn) {
  bool changed = false;
  for (BasicBlock& blk : fn.blocks) {
    std::map<int, ConstVal> known;  // reg -> constant value (local)
    for (Instr& in : blk.instrs) {
      // Try folding first.
      if (in.op == Op::ConstI) {
        known[in.dst] = ConstVal{IrType::I64, in.imm_i, 0};
        continue;
      }
      if (in.op == Op::ConstF) {
        known[in.dst] = ConstVal{IrType::F64, 0, in.imm_f};
        continue;
      }
      const auto ka = known.find(in.a);
      const auto kb = known.find(in.b);
      const bool a_const = in.a >= 0 && ka != known.end();
      const bool b_const = in.b >= 0 && kb != known.end();

      std::optional<ConstVal> folded;
      if (is_pure(in.op) && in.dst >= 0) {
        if (in.b < 0 && a_const) {
          folded = eval_unary(in, ka->second);
        } else if (a_const && b_const) {
          folded = eval_binary(in, ka->second, kb->second);
        }
      }
      // Trapping integer division folds only with a known non-zero divisor.
      if (!folded && (in.op == Op::DivI || in.op == Op::ModI) && a_const && b_const &&
          kb->second.i != 0) {
        ConstVal r;
        r.type = IrType::I64;
        r.i = in.op == Op::DivI ? ka->second.i / kb->second.i : ka->second.i % kb->second.i;
        folded = r;
      }

      if (folded) {
        const int dst = in.dst;
        in = Instr{};
        in.dst = dst;
        if (folded->type == IrType::F64) {
          in.op = Op::ConstF;
          in.imm_f = folded->f;
          in.type = IrType::F64;
        } else {
          in.op = Op::ConstI;
          in.imm_i = folded->i;
          in.type = IrType::I64;
        }
        known[dst] = *folded;
        changed = true;
        continue;
      }

      // Exact algebraic identities.
      auto to_mov = [&](int src) {
        const int dst = in.dst;
        const IrType t = in.type;
        in = Instr{};
        in.op = Op::Mov;
        in.dst = dst;
        in.a = src;
        in.type = t;
        changed = true;
      };
      const bool a_zero_i = a_const && ka->second.type == IrType::I64 && ka->second.i == 0;
      const bool b_zero_i = b_const && kb->second.type == IrType::I64 && kb->second.i == 0;
      const bool a_one_i = a_const && ka->second.type == IrType::I64 && ka->second.i == 1;
      const bool b_one_i = b_const && kb->second.type == IrType::I64 && kb->second.i == 1;
      const bool b_zero_f = b_const && kb->second.type == IrType::F64 && kb->second.f == 0.0;
      const bool a_zero_f = a_const && ka->second.type == IrType::F64 && ka->second.f == 0.0;
      const bool b_one_f = b_const && kb->second.type == IrType::F64 && kb->second.f == 1.0;
      const bool a_one_f = a_const && ka->second.type == IrType::F64 && ka->second.f == 1.0;
      const bool a_two_i = a_const && ka->second.type == IrType::I64 && ka->second.i == 2;
      const bool b_two_i = b_const && kb->second.type == IrType::I64 && kb->second.i == 2;

      switch (in.op) {
        case Op::AddI:
          if (b_zero_i) { to_mov(in.a); break; }
          if (a_zero_i) { to_mov(in.b); break; }
          break;
        case Op::SubI:
          if (b_zero_i) to_mov(in.a);
          break;
        case Op::MulI:
          if (b_one_i) { to_mov(in.a); break; }
          if (a_one_i) { to_mov(in.b); break; }
          if (a_zero_i || b_zero_i) {
            const int dst = in.dst;
            in = Instr{};
            in.op = Op::ConstI;
            in.dst = dst;
            in.imm_i = 0;
            in.type = IrType::I64;
            known[dst] = ConstVal{IrType::I64, 0, 0};
            changed = true;
            break;
          }
          // Strength reduction: x*2 -> x+x (exact for ints).
          if (b_two_i) {
            in.op = Op::AddI;
            in.b = in.a;
            changed = true;
            break;
          }
          if (a_two_i) {
            in.op = Op::AddI;
            in.a = in.b;
            changed = true;
            break;
          }
          break;
        case Op::DivI:
          if (b_one_i) to_mov(in.a);
          break;
        case Op::AddF:
          // x + 0.0 == x except for x == -0.0, whose sum is +0.0; both
          // compare equal and behave identically in MiniC (no copysign).
          if (b_zero_f) { to_mov(in.a); break; }
          if (a_zero_f) { to_mov(in.b); break; }
          break;
        case Op::SubF:
          if (b_zero_f) to_mov(in.a);
          break;
        case Op::MulF:
          if (b_one_f) { to_mov(in.a); break; }
          if (a_one_f) { to_mov(in.b); break; }
          // x*2.0 -> x+x is exact in binary floating point.
          if (b_const && kb->second.type == IrType::F64 && kb->second.f == 2.0) {
            in.op = Op::AddF;
            in.b = in.a;
            changed = true;
          }
          break;
        case Op::DivF:
          if (b_one_f) to_mov(in.a);
          break;
        default:
          break;
      }

      // Whatever the instruction became, its destination is no longer a
      // known constant (unless handled above).
      if (in.dst >= 0 && in.op != Op::ConstI && in.op != Op::ConstF) known.erase(in.dst);
      // Calls invalidate nothing here: registers are private to the frame.
    }
  }
  return changed;
}

bool propagate_copies(IrFunction& fn) {
  bool changed = false;
  for (BasicBlock& blk : fn.blocks) {
    std::map<int, int> copy_of;  // dst -> src while valid
    for (Instr& in : blk.instrs) {
      // Rewrite uses through the copy map (follow chains).
      auto rewrite = [&](int reg) {
        int r = reg;
        auto it = copy_of.find(r);
        while (it != copy_of.end()) {
          r = it->second;
          it = copy_of.find(r);
        }
        return r;
      };
      if (in.a >= 0) {
        const int r = rewrite(in.a);
        if (r != in.a) {
          in.a = r;
          changed = true;
        }
      }
      if (in.b >= 0) {
        const int r = rewrite(in.b);
        if (r != in.b) {
          in.b = r;
          changed = true;
        }
      }
      for (int& arg : in.args) {
        if (arg >= 0) {
          const int r = rewrite(arg);
          if (r != arg) {
            arg = r;
            changed = true;
          }
        }
      }
      if (in.dst >= 0) {
        // A definition kills copies through dst in both directions.
        copy_of.erase(in.dst);
        for (auto it = copy_of.begin(); it != copy_of.end();)
          it = it->second == in.dst ? copy_of.erase(it) : std::next(it);
        if (in.op == Op::Mov && in.a != in.dst) copy_of[in.dst] = in.a;
      }
    }
  }
  return changed;
}

bool eliminate_dead_code(IrFunction& fn) {
  const auto nblocks = fn.blocks.size();
  bool changed = false;

  // Dead stores: scalar slots never loaded can drop their stores (but keep
  // stores of incoming parameters? No: if never loaded, they are dead too).
  std::vector<bool> slot_loaded(fn.var_slots.size(), false);
  for (const BasicBlock& blk : fn.blocks)
    for (const Instr& in : blk.instrs)
      if (in.op == Op::LoadVar) slot_loaded[static_cast<std::size_t>(in.slot)] = true;
  for (BasicBlock& blk : fn.blocks) {
    const auto before = blk.instrs.size();
    std::erase_if(blk.instrs, [&](const Instr& in) {
      return in.op == Op::StoreVar && !slot_loaded[static_cast<std::size_t>(in.slot)];
    });
    changed |= blk.instrs.size() != before;
  }

  // Backward liveness, then remove removable instructions with dead
  // destinations, scanning backward with a running live set.
  const Liveness lv = compute_liveness(fn);
  const auto nregs = static_cast<std::size_t>(fn.num_regs);
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::vector<bool> live = lv.out[b];
    live.resize(nregs, false);
    std::vector<Instr> kept;
    for (auto it = fn.blocks[b].instrs.rbegin(); it != fn.blocks[b].instrs.rend(); ++it) {
      const bool removable = is_removable(*it) && it->dst >= 0 &&
                             !live[static_cast<std::size_t>(it->dst)];
      if (removable) {
        changed = true;
        continue;
      }
      if (it->dst >= 0) live[static_cast<std::size_t>(it->dst)] = false;
      auto mark = [&](int reg) {
        if (reg >= 0) live[static_cast<std::size_t>(reg)] = true;
      };
      mark(it->a);
      mark(it->b);
      for (int arg : it->args)
        if (!is_array_arg(arg)) mark(arg);
      kept.push_back(std::move(*it));
    }
    std::reverse(kept.begin(), kept.end());
    fn.blocks[b].instrs = std::move(kept);
  }
  return changed;
}

bool eliminate_common_subexpressions(IrFunction& fn) {
  bool changed = false;
  for (BasicBlock& blk : fn.blocks) {
    struct Key {
      Op op;
      int a, b, slot;
      long long imm_i;
      double imm_f;
      bool operator<(const Key& o) const {
        if (op != o.op) return op < o.op;
        if (a != o.a) return a < o.a;
        if (b != o.b) return b < o.b;
        if (slot != o.slot) return slot < o.slot;
        if (imm_i != o.imm_i) return imm_i < o.imm_i;
        return imm_f < o.imm_f;
      }
    };
    std::map<Key, int> available;  // expression -> defining register
    auto invalidate_reg = [&](int reg) {
      for (auto it = available.begin(); it != available.end();) {
        if (it->first.a == reg || it->first.b == reg || it->second == reg)
          it = available.erase(it);
        else
          ++it;
      }
    };
    auto invalidate_loads = [&](bool vars, int slot /*-1: all*/) {
      for (auto it = available.begin(); it != available.end();) {
        const bool is_load = vars ? it->first.op == Op::LoadVar : it->first.op == Op::LoadIdx;
        if (is_load && (slot < 0 || it->first.slot == slot))
          it = available.erase(it);
        else
          ++it;
      }
    };

    for (Instr& in : blk.instrs) {
      const bool cse_able = (is_pure(in.op) && in.op != Op::Mov) || in.op == Op::ConstI ||
                            in.op == Op::ConstF || in.op == Op::LoadVar ||
                            in.op == Op::LoadIdx;
      if (cse_able && in.dst >= 0) {
        Key key{in.op, in.a, in.b, in.slot, in.imm_i, in.imm_f};
        auto it = available.find(key);
        if (it != available.end()) {
          const int dst = in.dst;
          const IrType t = in.type;
          const int src = it->second;
          in = Instr{};
          in.op = Op::Mov;
          in.dst = dst;
          in.a = src;
          in.type = t;
          changed = true;
          invalidate_reg(dst);
          continue;
        }
        invalidate_reg(in.dst);
        available[key] = in.dst;
        continue;
      }
      if (in.dst >= 0) invalidate_reg(in.dst);
      if (in.op == Op::StoreVar) invalidate_loads(true, in.slot);
      if (in.op == Op::StoreIdx) invalidate_loads(false, in.slot);
      if (in.op == Op::Call) {
        // Calls may write arrays passed by reference anywhere up the chain;
        // be conservative about all array loads. Scalar slots are private.
        invalidate_loads(false, -1);
      }
    }
  }
  return changed;
}

bool promote_variables(IrFunction& fn) {
  if (fn.var_slots.empty()) return false;
  // One dedicated register per scalar slot.
  std::vector<int> home(fn.var_slots.size());
  for (std::size_t s = 0; s < fn.var_slots.size(); ++s) home[s] = fn.new_reg();
  bool changed = false;
  for (BasicBlock& blk : fn.blocks) {
    for (Instr& in : blk.instrs) {
      if (in.op == Op::LoadVar) {
        const int dst = in.dst;
        const IrType t = in.type;
        const int src = home[static_cast<std::size_t>(in.slot)];
        in = Instr{};
        in.op = Op::Mov;
        in.dst = dst;
        in.a = src;
        in.type = t;
        changed = true;
      } else if (in.op == Op::StoreVar) {
        const int src = in.a;
        const IrType t = in.type;
        const int dst = home[static_cast<std::size_t>(in.slot)];
        in = Instr{};
        in.op = Op::Mov;
        in.dst = dst;
        in.a = src;
        in.type = t;
        changed = true;
      }
    }
  }
  return changed;
}

bool hoist_loop_invariants(IrFunction& fn) {
  bool changed = false;
  Cfg cfg = analyze_cfg(fn);
  const auto loops = find_loops(fn, cfg);
  Liveness lv = compute_liveness(fn);
  for (const Loop& loop : loops) {
    // Definition counts per register inside this loop.
    std::map<int, int> defs_in_loop;
    for (int b : loop.blocks)
      for (const Instr& in : fn.blocks[static_cast<std::size_t>(b)].instrs)
        if (in.dst >= 0) ++defs_in_loop[in.dst];

    // A register may be hoisted only if its pre-loop value is unobservable:
    // not live into the header and not live out of any loop exit edge.
    auto hoist_safe_dst = [&](int dst) {
      const auto d = static_cast<std::size_t>(dst);
      if (d < lv.in[static_cast<std::size_t>(loop.header)].size() &&
          lv.in[static_cast<std::size_t>(loop.header)][d])
        return false;
      for (int b : loop.blocks)
        for (int s : fn.successors(b))
          if (!loop.has(s) && d < lv.in[static_cast<std::size_t>(s)].size() &&
              lv.in[static_cast<std::size_t>(s)][d])
            return false;
      return true;
    };

    // Collect hoistable instructions (in deterministic block order).
    std::vector<Instr> hoisted;
    auto loop_blocks_sorted = loop.blocks;
    std::sort(loop_blocks_sorted.begin(), loop_blocks_sorted.end());
    bool progress = true;
    std::set<int> hoisted_dsts;
    while (progress) {
      progress = false;
      for (int b : loop_blocks_sorted) {
        auto& instrs = fn.blocks[static_cast<std::size_t>(b)].instrs;
        for (auto it = instrs.begin(); it != instrs.end();) {
          const Instr& in = *it;
          const bool candidate =
              (is_pure(in.op) || in.op == Op::ConstI || in.op == Op::ConstF) &&
              in.dst >= 0 && in.op != Op::Mov && defs_in_loop[in.dst] == 1 &&
              hoist_safe_dst(in.dst);
          bool operands_invariant = candidate;
          if (candidate) {
            for (int reg : {in.a, in.b}) {
              if (reg >= 0 &&
                  (defs_in_loop.count(reg) && defs_in_loop[reg] > 0) &&
                  !hoisted_dsts.count(reg))
                operands_invariant = false;
            }
          }
          if (candidate && operands_invariant) {
            hoisted.push_back(in);
            hoisted_dsts.insert(in.dst);
            defs_in_loop[in.dst] = 0;
            it = instrs.erase(it);
            progress = true;
            changed = true;
          } else {
            ++it;
          }
        }
      }
    }
    if (hoisted.empty()) continue;

    // Create the preheader: a new block jumping to the header; redirect
    // every non-back-edge predecessor of the header to it.
    const int pre = static_cast<int>(fn.blocks.size());
    BasicBlock pb;
    pb.id = pre;
    pb.instrs = std::move(hoisted);
    Instr j;
    j.op = Op::Jump;
    j.t1 = loop.header;
    pb.instrs.push_back(std::move(j));
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      if (loop.has(static_cast<int>(b))) continue;  // back edges stay
      Instr& term = fn.blocks[b].instrs.back();
      if (term.op == Op::Jump && term.t1 == loop.header) term.t1 = pre;
      if (term.op == Op::CJump) {
        if (term.t1 == loop.header) term.t1 = pre;
        if (term.t2 == loop.header) term.t2 = pre;
      }
    }
    fn.blocks.push_back(std::move(pb));
    // CFG changed: recompute analyses for the next loop.
    cfg = analyze_cfg(fn);
    lv = compute_liveness(fn);
  }
  return changed;
}

}  // namespace pdc::ir
