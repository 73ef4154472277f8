// The MiniC virtual machine: an IR interpreter with a deterministic cycle
// cost model and vPAPI virtual hardware counters.
//
// This replaces the paper's PAPI/hardware-counter measurement layer: block
// timings come from a per-opcode cycle model instead of performance-counter
// registers, giving noise-free "measurements" with the same interface role
// (per-block durations in nanoseconds at a given core frequency).
//
// Decoding. The constructor decodes every function once into a flat array:
// the blocks laid end to end, jump targets as indices into that array, the
// twelve builtins as a `Builtin` enum and user callees as pointers to their
// decoded functions. Execution does no name lookup.
//
// Run charging. A *run* is a straight-line stretch of instructions that
// ends at the first instruction that lets something observe cycles():
// BlockBegin, BlockEnd, IterMark, Call, AllocArr, or a terminator. Each
// run's head carries its summed op cost and instruction count, and the VM
// charges the whole run on entering it (a jump charges its target's run).
// Every observer is the last instruction of its run, so what it sees is
// exactly the cost of what has executed, as if charged one instruction at
// a time. The cycle limit is checked once per run; since the charged
// prefix only grows, a program traps exactly when its total exceeds the
// limit. After a trap, cycles() and the instruction count include the rest
// of the trapping run. Because a run is charged as a whole, the decoder may
// also fuse a Mov with the Jump after it, and a comparison with the CJump
// that tests it, into one dispatch without changing any count.
//
// Quarter cycles. Pre-summing is exact only because every cost of the
// default model is a multiple of 0.25 (CostModel.DefaultCostsAreQuarterCycles):
// such sums are exact doubles up to 2^51 cycles, so any grouping of the
// additions gives the same bits. Paper-size runs total about 2e9 cycles.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace pdc::vm {

/// One register, variable slot or array element. Sema gives each of them a
/// single type, so a value is only ever read through the member it was
/// written through.
struct Value {
  union {
    long long i = 0;
    double f;
  };

  static Value of_i(long long v) {
    Value x;
    x.i = v;
    return x;
  }
  static Value of_f(double v) {
    Value x;
    x.f = v;
    return x;
  }
};
static_assert(sizeof(Value) == 8);

struct ArrayObj {
  ir::IrType elem = ir::IrType::F64;
  std::vector<Value> data;
};

/// The builtins the VM executes itself (the dperf_* markers lower to ops).
enum class Builtin : std::uint8_t {
  Sqrt, Fabs, Fmax, Fmin, Floor,
  Rank, Nprocs, Param, ParamF,
  Send, Recv, AllreduceMax,
};
inline constexpr std::size_t kBuiltinCount = 12;

/// Cycle costs per operation; see default_model() for the Xeon-era numbers.
class CostModel {
 public:
  static CostModel default_model();

  double op_cost(ir::Op op) const { return op_cost_[static_cast<std::size_t>(op)]; }
  void set_op_cost(ir::Op op, double cycles) { op_cost_[static_cast<std::size_t>(op)] = cycles; }
  double builtin_cost(Builtin b) const { return builtin_cost_[static_cast<std::size_t>(b)]; }
  double call_overhead = 12;
  double per_arg_cost = 1;
  double alloc_base = 100;
  double alloc_per_elem = 0.25;

 private:
  std::vector<double> op_cost_ = std::vector<double>(64, 1.0);
  std::array<double, kBuiltinCount> builtin_cost_{};
};

/// Virtual PAPI counters.
struct VPapi {
  struct BlockStat {
    std::uint64_t executions = 0;
    double cycles = 0;
  };
  std::uint64_t instructions = 0;
  std::map<int, BlockStat> blocks;
  std::uint64_t iter_marks = 0;

  /// Mean cycles per execution of an instrumented block.
  double mean_cycles(int block_id) const {
    auto it = blocks.find(block_id);
    if (it == blocks.end() || it->second.executions == 0) return 0;
    return it->second.cycles / static_cast<double>(it->second.executions);
  }
};

class Vm;

/// Host hooks for the communication intrinsics and workload parameters.
/// The default implementation is a single-process, zero-parameter world.
class CommHooks {
 public:
  virtual ~CommHooks() = default;
  virtual int rank() { return 0; }
  virtual int nprocs() { return 1; }
  virtual long long param(int /*i*/) { return 0; }
  virtual double param_f(int /*i*/) { return 0; }
  virtual void send(int /*peer*/, int /*tag*/, ArrayObj& /*arr*/, long long /*off*/,
                    long long /*n*/) {}
  virtual void recv(int /*peer*/, int /*tag*/, ArrayObj& /*arr*/, long long /*off*/,
                    long long /*n*/) {}
  virtual double allreduce_max(double v) { return v; }
  virtual void iter_mark(long long /*id*/) {}

 protected:
  friend class Vm;
  Vm* vm_ = nullptr;  // set by Vm::set_hooks; hooks may query cycles()
};

/// Runtime trap (out-of-bounds, division by zero, cycle limit, ...).
class TrapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Vm {
 public:
  /// Decodes `program`, which must outlive the Vm.
  explicit Vm(const ir::IrProgram& program, CostModel model = CostModel::default_model());

  void set_hooks(CommHooks* hooks);

  /// Calls a function by name. Scalar arguments only (top-level entry).
  Value call(const std::string& name, const std::vector<Value>& args = {});

  /// Runs int main() and returns its value.
  long long run_main();

  double cycles() const { return cycles_; }
  /// Simulated nanoseconds at `hz` core frequency.
  double ns_at(double hz) const { return cycles_ / hz * 1e9; }
  const VPapi& papi() const { return papi_; }
  VPapi& papi() { return papi_; }

  void set_cycle_limit(double limit) { cycle_limit_ = limit; }

 private:
  struct Fn;
  /// One decoded instruction.
  struct Code {
    ir::Op op = ir::Op::Ret;
    int dst = -1, a = -1, b = -1, slot = -1;
    // Jump/CJump, and a Mov or comparison fused with the jump after it: the
    // flat index of the target block's first instruction.
    int t1 = -1, t2 = -1;
    union {
      long long imm_i = 0;
      double imm_f;
    };
    // At the head of a run: the run's instruction count and summed op cost.
    std::uint32_t run_len = 0;
    double run_cost = 0;
    // Call: the builtin, or else the user callee (null when there is none).
    bool is_builtin = false;
    Builtin builtin = Builtin::Sqrt;
    const Fn* callee = nullptr;
    const ir::Instr* ir = nullptr;  // the source: call arguments and names
  };
  /// A function decoded for execution: its blocks end to end, entry first.
  struct Fn {
    const ir::IrFunction* ir = nullptr;
    std::vector<Code> code;
  };

  void decode(std::size_t index);
  Value exec(const Fn& fn, std::vector<Value> scalar_args,
             std::vector<std::shared_ptr<ArrayObj>> array_args, int depth);

  const ir::IrProgram* prog_;
  std::vector<Fn> fns_;  // parallel to prog_->functions
  CostModel model_;
  CommHooks default_hooks_;
  CommHooks* hooks_;
  double cycles_ = 0;
  double cycle_limit_ = 1e18;
  VPapi papi_;
  std::vector<std::pair<int, double>> block_stack_;
};

}  // namespace pdc::vm
