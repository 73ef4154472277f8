#include "campaign/executor.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>

#include "support/csv.hpp"
#include "support/file.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"

namespace pdc::campaign {

namespace fs = std::filesystem;

namespace {

void metric_json(JsonWriter& w, const Summary& s) {
  w.begin_object();
  w.kv("n", static_cast<std::int64_t>(s.n));
  w.kv("mean", s.mean);
  w.kv("stddev", s.stddev);
  w.kv("min", s.min);
  w.kv("max", s.max);
  w.kv("p50", s.p50);
  w.kv("p95", s.p95);
  w.kv("ci95_half", s.ci95_half);
  w.end_object();
}

}  // namespace

std::map<std::string, double> record_metrics(const JsonValue& record) {
  std::map<std::string, double> m;
  auto phase = [&m, &record](const char* key, const char* prefix) {
    if (!record.has(key)) return;
    const JsonValue& ph = record.at(key);
    m[std::string(prefix) + "_solve_seconds"] = ph.at("solve_seconds").as_double();
    m[std::string(prefix) + "_total_seconds"] = ph.at("total_seconds").as_double();
    // Event-kernel observability: how much simulator work the phase cost
    // and whether any closure fell off the allocation-free inline path
    // (aggregated next to the FlowNet-derived metrics; absent in records
    // written before the engine block existed).
    // Class-solver compression per phase: how many flow classes the max-min
    // solver actually held live at peak (absent in records written before
    // the class solver existed).
    if (ph.has("flownet") && ph.at("flownet").has("classes_active"))
      m[std::string(prefix) + "_flownet_classes"] =
          ph.at("flownet").at("classes_active").as_double();
    if (ph.has("engine")) {
      const JsonValue& e = ph.at("engine");
      m[std::string(prefix) + "_engine_events"] = e.at("events_dispatched").as_double();
      m[std::string(prefix) + "_engine_heap_closures"] =
          e.at("closures_heap").as_double();
    }
    // Churn observability (present only for churn-enabled runs): lets a
    // volatility sweep tabulate re-allocations and failovers per grid point
    // next to the prediction error.
    if (!ph.has("churn")) return;
    const JsonValue& c = ph.at("churn");
    m[std::string(prefix) + "_churn_events"] = c.at("events_applied").as_double();
    m[std::string(prefix) + "_churn_attempts"] = c.at("attempts").as_double();
    m[std::string(prefix) + "_churn_rejoins"] = c.at("rejoins").as_double();
  };
  phase("reference", "reference");
  phase("predicted", "predicted");
  phase("analytic", "analytic");
  if (record.has("prediction_error"))
    m["prediction_error"] = record.at("prediction_error").as_double();
  if (record.has("analytic_error"))
    m["analytic_error"] = record.at("analytic_error").as_double();
  return m;
}

namespace {

/// Parses one persisted record and fills `out` when it is a complete,
/// matching record for `run`. With `accept_errors` (the merge path), failed
/// records load too — their error message lands in out.error so aggregation
/// counts them exactly like a live failed run; without it (the resume path),
/// failed records are rejected so they re-execute. Returns false on any
/// mismatch or parse failure.
bool load_record_text(const std::string& text, const CampaignRun& run, Outcome& out,
                      bool accept_errors) {
  try {
    const JsonValue doc = parse_json(text);
    if (!doc.has("scenario") || doc.at("scenario").as_string() != run.spec.name)
      return false;
    if (!accept_errors && doc.has("error")) return false;
    // The run name encodes axis values but not the base scenario, so an
    // edited .cmp (different grid/iters/mode, changed variant parameters,
    // edited inline platform text, ...) must not silently resume stale
    // records: the record's canonical spec text must match this run's
    // exactly. Older records without the field are re-executed.
    if (!doc.has("spec") ||
        doc.at("spec").as_string() != scenario::render_scenario(run.spec))
      return false;
    // Extract before committing any state: a record whose metrics do not
    // parse (older format) is re-executed, not half-loaded.
    auto metrics = doc.has("error") ? std::map<std::string, double>{}
                                    : record_metrics(doc);
    out.skipped = true;
    out.error = doc.has("error") ? doc.at("error").as_string() : "";
    out.record_json = text;
    out.metrics = std::move(metrics);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// A worker killed mid-write leaves runs/<key>.json.tmp behind; the rename
/// protocol already keeps such torn files out of resume's sight, and this
/// sweep keeps them from accumulating. Only *.tmp leftovers are touched —
/// never completed records.
void clean_stale_temps(const fs::path& runs_dir) {
  if (!fs::is_directory(runs_dir)) return;
  for (const fs::directory_entry& entry : fs::directory_iterator(runs_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code ec;
      fs::remove(entry.path(), ec);  // best effort; a live writer wins the race
    }
  }
}

}  // namespace

Executor::Executor(CampaignSpec spec, ExecutorOptions opts)
    : spec_(std::move(spec)),
      opts_(std::move(opts)),
      runs_(shard_runs(expand(spec_), opts_.shard_index, opts_.shard_count)) {}

std::string Executor::record_path(const CampaignRun& run) const {
  return (fs::path(opts_.out_dir) / "runs" / (run.key + ".json")).string();
}

bool Executor::try_resume(const CampaignRun& run, Outcome& out) const {
  if (opts_.out_dir.empty() || !opts_.resume) return false;
  const std::optional<std::string> text = read_file(record_path(run));
  // Only a complete, matching, successful record counts as done; failed
  // or foreign records are re-executed.
  return text && load_record_text(*text, run, out, /*accept_errors=*/false);
}

void Executor::execute_one(const CampaignRun& run, Outcome& out) const {
  const auto t0 = std::chrono::steady_clock::now();
  // Warnings this run emits (starved flows, ...) carry its key even when
  // eight workers interleave on stderr.
  LogRunTag tag(run.key);
  scenario::ScenarioSpec spec = run.spec;
  if (!opts_.trace_dir.empty() && spec.run.trace_path.empty())
    spec.run.trace_path =
        (fs::path(opts_.trace_dir) / (run.key + ".trace.json")).string();
  const scenario::Runner runner{std::move(spec)};
  scenario::RunRecord rec = runner.try_run();
  out.error = rec.error;
  out.record_json = rec.to_json();
  // Nothing may escape a pooled worker (an uncaught exception would
  // std::terminate the whole campaign): record persistence or metric
  // extraction failures become this run's structured error, same as a
  // failed simulation.
  try {
    if (!opts_.out_dir.empty()) write_file_atomic(record_path(run), out.record_json);
    if (rec.ok()) out.metrics = record_metrics(parse_json(out.record_json));
  } catch (const std::exception& e) {
    out.error = e.what();
    out.metrics.clear();
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

CampaignReport Executor::execute() {
  const auto t0 = std::chrono::steady_clock::now();
  if (!opts_.out_dir.empty()) {
    fs::create_directories(fs::path(opts_.out_dir) / "runs");
    // A previous session interrupted mid-run may have left torn temp files;
    // they are never trusted (only renamed records are), so drop them now.
    clean_stale_temps(fs::path(opts_.out_dir) / "runs");
  }
  if (!opts_.trace_dir.empty()) fs::create_directories(opts_.trace_dir);

  outcomes_.clear();
  outcomes_.resize(runs_.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    outcomes_[i].run = runs_[i];
    if (!try_resume(runs_[i], outcomes_[i])) pending.push_back(i);
  }

  std::mutex progress_mutex;
  std::size_t finished = 0;
  if (opts_.progress)
    std::fprintf(stderr, "campaign %s: %zu runs (%zu resumed), jobs=%d\n",
                 spec_.name.c_str(), runs_.size(), runs_.size() - pending.size(),
                 opts_.jobs);
  auto work = [&](std::size_t idx) {
    try {
      execute_one(runs_[idx], outcomes_[idx]);
    } catch (const std::exception& e) {  // belt and braces: see execute_one
      outcomes_[idx].error = e.what();
    } catch (...) {
      outcomes_[idx].error = "unknown error";
    }
    if (!opts_.progress) return;
    const Outcome& out = outcomes_[idx];
    std::lock_guard<std::mutex> lock(progress_mutex);
    ++finished;
    std::fprintf(stderr, "[%zu/%zu] %s: %s (%.2fs)\n", finished, pending.size(),
                 runs_[idx].key.c_str(),
                 out.ok() ? "ok" : ("ERROR " + out.error).c_str(), out.wall_seconds);
  };

  // The pool clamps jobs <= 1 to one worker, so -j1 takes the -j N path and
  // runs the matrix in order.
  ThreadPool pool(opts_.jobs);
  for (std::size_t idx : pending) pool.submit([&work, idx] { work(idx); });
  pool.wait_idle();

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  CampaignReport report = aggregate_outcomes(spec_.name, outcomes_, opts_.jobs, wall);
  report.executed = pending.size();
  if (!opts_.out_dir.empty()) {
    // Concurrent shard processes sharing one out_dir each write their own
    // (partial) report file; only an unsharded session owns report.json.
    const std::string suffix =
        opts_.shard_count > 1 ? "-shard" + std::to_string(opts_.shard_index) + "of" +
                                    std::to_string(opts_.shard_count)
                              : "";
    write_file_atomic(fs::path(opts_.out_dir) / ("report" + suffix + ".json"),
                      report.to_json());
    write_file_atomic(fs::path(opts_.out_dir) / ("report" + suffix + ".csv"),
                      report.to_csv());
  }
  return report;
}

CampaignReport Executor::merge(const std::vector<std::string>& input_dirs) {
  if (opts_.shard_count != 1)
    throw std::logic_error("merge must run over the full matrix (shard 0/1)");
  const auto t0 = std::chrono::steady_clock::now();
  if (!opts_.out_dir.empty()) fs::create_directories(fs::path(opts_.out_dir) / "runs");

  // Accept each input as either a campaign output directory (records in
  // <dir>/runs/) or a bare record directory.
  auto candidate_paths = [&input_dirs](const CampaignRun& run) {
    std::vector<fs::path> paths;
    for (const std::string& dir : input_dirs) {
      paths.push_back(fs::path(dir) / "runs" / (run.key + ".json"));
      paths.push_back(fs::path(dir) / (run.key + ".json"));
    }
    return paths;
  };

  outcomes_.clear();
  outcomes_.resize(runs_.size());
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    Outcome& out = outcomes_[i];
    out.run = runs_[i];
    bool found = false;
    for (const fs::path& path : candidate_paths(runs_[i])) {
      const std::optional<std::string> text = read_file(path);
      if (!text) continue;
      if (load_record_text(*text, runs_[i], out, /*accept_errors=*/true)) {
        found = true;
        break;
      }
      // A file with the right name but wrong spec text is a stale record
      // from an edited campaign — surface it instead of aggregating it.
      out.skipped = true;
      out.error = "stale or foreign record: " + path.string();
      found = true;
      break;
    }
    if (!found) {
      out.skipped = true;
      out.error = "missing record: runs/" + runs_[i].key + ".json";
    } else if (!out.record_json.empty() && !opts_.out_dir.empty()) {
      // Assemble one complete, resumable run directory alongside the report.
      write_file_atomic(fs::path(opts_.out_dir) / "runs" / (runs_[i].key + ".json"),
                        out.record_json);
    }
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  CampaignReport report = aggregate_outcomes(spec_.name, outcomes_, opts_.jobs, wall);
  report.executed = 0;
  if (!opts_.out_dir.empty()) {
    // The canonical form: a pure function of the records, so merging shard
    // directories and merging a single -j1 directory produce identical
    // bytes (diffed in tests and the serve-smoke CI job).
    write_file_atomic(fs::path(opts_.out_dir) / "report.json",
                      report.to_json(/*canonical=*/true));
    write_file_atomic(fs::path(opts_.out_dir) / "report.csv", report.to_csv());
  }
  return report;
}

CampaignReport aggregate_outcomes(const std::string& campaign_name,
                                  const std::vector<Outcome>& outcomes, int jobs,
                                  double wall_seconds) {
  CampaignReport report;
  report.name = campaign_name;
  report.jobs = jobs;
  report.total = outcomes.size();
  report.wall_seconds = wall_seconds;

  // Grid points in first-appearance (expansion) order; repetitions are the
  // innermost expansion axis, so samples group naturally.
  std::map<std::string, std::size_t> point_index;
  std::vector<std::map<std::string, std::vector<double>>> samples;
  for (const Outcome& out : outcomes) {
    if (out.skipped) ++report.skipped;
    auto it = point_index.find(out.run.point_key);
    if (it == point_index.end()) {
      it = point_index.emplace(out.run.point_key, report.points.size()).first;
      const scenario::ScenarioSpec& s = out.run.spec;
      PointReport p;
      p.key = out.run.point_key;
      p.platform_label = s.platform.label;
      p.platform_kind = s.platform.kind();
      p.peers = s.run.peers;
      p.opt = ir::opt_level_name(s.run.level);
      p.scheme = scenario::render_run_value(s.run, "scheme");
      p.alloc = scenario::render_run_value(s.run, "alloc");
      p.seed = s.run.seed;
      report.points.push_back(std::move(p));
      samples.emplace_back();
    }
    PointReport& point = report.points[it->second];
    if (!out.ok()) {
      ++point.errors;
      ++report.errors;
      continue;
    }
    ++point.repetitions;
    for (const auto& [name, value] : out.metrics) samples[it->second][name].push_back(value);
  }
  for (std::size_t i = 0; i < report.points.size(); ++i)
    for (const auto& [name, values] : samples[i])
      report.points[i].metrics[name] = summarize(values);
  return report;
}

std::string CampaignReport::to_json(bool canonical) const {
  JsonWriter w;
  w.begin_object();
  w.kv("campaign", name);
  if (!canonical) {
    w.kv("jobs", jobs);
  }
  w.kv("total_runs", static_cast<std::int64_t>(total));
  if (!canonical) {
    w.kv("executed", static_cast<std::int64_t>(executed));
    w.kv("skipped", static_cast<std::int64_t>(skipped));
  }
  w.kv("errors", static_cast<std::int64_t>(errors));
  if (!canonical) {
    w.kv("wall_seconds", wall_seconds);
  }
  w.key("points").begin_array();
  for (const PointReport& p : points) {
    w.begin_object();
    w.kv("point", p.key);
    w.key("platform").begin_object();
    w.kv("label", p.platform_label);
    w.kv("kind", p.platform_kind);
    w.end_object();
    w.kv("peers", p.peers);
    w.kv("opt", p.opt);
    w.kv("scheme", p.scheme);
    w.kv("alloc", p.alloc);
    w.kv("seed", p.seed);
    w.kv("repetitions", p.repetitions);
    w.kv("errors", p.errors);
    w.key("metrics").begin_object();
    for (const auto& [metric, summary] : p.metrics) {
      w.key(metric);
      metric_json(w, summary);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

std::string CampaignReport::to_csv() const {
  CsvWriter csv({"campaign", "point", "platform", "kind", "peers", "opt", "scheme",
                 "alloc", "seed", "repetitions", "errors", "metric", "n", "mean",
                 "stddev", "min", "max", "p50", "p95", "ci95_half"});
  for (const PointReport& p : points) {
    auto row = [&](const std::string& metric, const Summary& s) {
      csv.row({name, p.key, p.platform_label, p.platform_kind, std::to_string(p.peers),
               p.opt, p.scheme, p.alloc, std::to_string(p.seed),
               std::to_string(p.repetitions), std::to_string(p.errors), metric,
               std::to_string(s.n), format_shortest(s.mean), format_shortest(s.stddev),
               format_shortest(s.min), format_shortest(s.max), format_shortest(s.p50),
               format_shortest(s.p95), format_shortest(s.ci95_half)});
    };
    // A point whose every repetition failed has no metrics; emit one
    // placeholder row so its errors stay visible in the CSV.
    if (p.metrics.empty()) row("-", Summary{});
    for (const auto& [metric, s] : p.metrics) row(metric, s);
  }
  return csv.str();
}

}  // namespace pdc::campaign
