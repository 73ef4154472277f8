// dperf_tool: the dPerf pipeline as a command-line tool, mirroring how the
// paper's dPerf is used: feed it a (MiniC) source file with P2PSAP calls, a
// platform description and a process count; get the instrumented source,
// the per-block benchmark report, per-process trace files and the predicted
// execution time.
//
// Usage:
//   dperf_tool <source.mc> --procs N [--opt 0|1|2|3|s] [--platform file.plat]
//              [--params i0,i1,...] [--fparams f0,f1,...]
//              [--emit-instrumented out.mc] [--emit-traces prefix]
//
// With no --platform, predictions run on the builtin Bordeplage cluster
// model. The iteration parameter (index 1) is sampled and scaled up unless
// the program has no marked communication loop.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dperf/dperf.hpp"
#include "minic/token.hpp"
#include "net/builders.hpp"
#include "net/platfile.hpp"
#include "obstacle/distributed.hpp"
#include "support/table.hpp"

namespace {

using namespace pdc;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: dperf_tool <source.mc> --procs N [--opt 0|1|2|3|s]\n"
               "                  [--platform file.plat] [--params i0,i1,...]\n"
               "                  [--fparams f0,f1,...] [--emit-instrumented out.mc]\n"
               "                  [--emit-traces prefix]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string source_path = argv[1];
  int procs = 2;
  std::string opt_level = "0";
  std::string platform_path;
  std::string emit_instrumented;
  std::string emit_traces;
  dperf::Workload workload;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--procs") procs = std::stoi(next());
      else if (arg == "--opt") opt_level = next();
      else if (arg == "--platform") platform_path = next();
      else if (arg == "--emit-instrumented") emit_instrumented = next();
      else if (arg == "--emit-traces") emit_traces = next();
      else if (arg == "--params") {
        for (const auto& v : split_commas(next())) workload.int_params.push_back(std::stoll(v));
      } else if (arg == "--fparams") {
        for (const auto& v : split_commas(next())) workload.float_params.push_back(std::stod(v));
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "argument error: %s\n", e.what());
      return 2;
    }
  }

  try {
    const std::string source = read_file(source_path);
    dperf::DperfOptions options;
    options.level = ir::parse_opt_level(opt_level);
    const dperf::Dperf pipeline{source, options};

    std::printf("== static analysis ==\n");
    std::printf("blocks: %zu, marked communication loops: %d\n",
                pipeline.instrumented().blocks.size(), pipeline.instrumented().iter_loops);
    if (!emit_instrumented.empty()) {
      std::ofstream out(emit_instrumented);
      out << pipeline.instrumented_source();
      std::printf("instrumented source written to %s\n", emit_instrumented.c_str());
    }

    std::printf("\n== block benchmarking (%s, 3 GHz reference) ==\n",
                ir::opt_level_name(options.level));
    const dperf::BlockTimings timings = pipeline.benchmark(workload);
    TextTable table({"block", "function", "line", "in comm loop", "executions", "mean ns"});
    for (const auto& e : timings.entries)
      table.add_row({std::to_string(e.info.id), e.info.function,
                     std::to_string(e.info.first_line),
                     e.info.comm_loop_depth > 0 ? "yes" : "no",
                     std::to_string(e.executions), TextTable::num(e.mean_ns, 1)});
    std::printf("%s", table.render().c_str());

    std::printf("\n== traces for %d processes ==\n", procs);
    auto traces = pipeline.traces(workload, procs);
    for (const auto& t : traces) {
      std::printf("rank %d: %zu events, compute %.4f s, %zu sends, %zu recvs\n", t.rank,
                  t.events.size(), t.total_compute_ns() / 1e9,
                  t.count(dperf::TraceEvent::Kind::Send),
                  t.count(dperf::TraceEvent::Kind::Recv));
      if (!emit_traces.empty()) {
        const std::string path = emit_traces + "." + std::to_string(t.rank) + ".trace";
        std::ofstream out(path);
        out << dperf::save_trace(t);
      }
    }
    if (!emit_traces.empty())
      std::printf("trace files written to %s.<rank>.trace\n", emit_traces.c_str());

    std::printf("\n== trace-based simulation ==\n");
    net::Platform platform =
        platform_path.empty()
            ? net::build_star(net::bordeplage_cluster_spec(procs + 3))
            : net::parse_platform(read_file(platform_path));
    if (platform.host_count() < procs + 3)
      throw std::runtime_error("platform needs at least " + std::to_string(procs + 3) +
                               " hosts (server, tracker, submitter + procs)");
    sim::Engine engine;
    p2pdc::Environment env{engine, platform};
    env.boot_server(platform.host(0));
    env.boot_tracker(platform.host(1), true);
    for (int i = 2; i < procs + 3; ++i)
      env.boot_peer(platform.host(i), overlay::PeerResources{3e9, 2e9, 80e9});
    env.finish_bootstrap();
    p2pdc::TaskSpec spec;
    spec.name = source_path;
    const dperf::Prediction pred =
        dperf::replay_on(env, platform.host(2), spec,
                         std::make_shared<const std::vector<dperf::Trace>>(std::move(traces)));
    if (!pred.computation.ok) throw std::runtime_error(pred.computation.failure);
    std::printf("predicted execution time : %.4f s\n", pred.solve_seconds);
    std::printf("incl. P2PDC overheads    : %.4f s (collection %.4f, allocation %.4f)\n",
                pred.total_seconds, pred.computation.collection_time(),
                pred.computation.allocation_time());
    return 0;
  } catch (const minic::CompileError& e) {
    std::fprintf(stderr, "%s: %s\n", source_path.c_str(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
