// Shared helpers for the table/figure reproduction binaries.
//
// Each bench prints the simulated (or host-measured) values next to the
// paper's published numbers so the comparison EXPERIMENTS.md records is
// visible directly in the binary's output. In addition every bench binary
// accepts `--json <path>` (or `--json=<path>`): the same rows that are
// printed are collected as obs::Json objects and written out as one
// machine-readable document, so table regressions can be diffed across
// commits without scraping stdout (see EXPERIMENTS.md, "Machine-readable
// output").
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/events.hpp"
#include "core/machine.hpp"
#include "core/sim.hpp"
#include "kernels/dispatch.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ppstap::bench {

/// Collects rows for the `--json` output of one bench binary. Inert (zero
/// rows stored is fine, nothing written) unless --json was passed.
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport r;
    return r;
  }

  /// Parses `--json <path>` / `--json=<path>` out of argv. Call first in
  /// main(); unknown arguments are ignored so binaries stay permissive.
  void init(const char* bench_name, int argc, char** argv) {
    name_ = bench_name;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc)
        path_ = argv[++i];
      else if (arg.rfind("--json=", 0) == 0)
        path_ = arg.substr(7);
    }
  }

  bool enabled() const { return !path_.empty(); }

  void add_row(obs::Json row) { rows_.push_back(std::move(row)); }

  /// Extra top-level field (e.g. parameters shared by every row).
  void set(std::string key, obs::Json value) {
    extra_.emplace_back(std::move(key), std::move(value));
  }

  /// Writes the document if --json was requested; returns main()'s exit
  /// code (the requested `code`, or 1 if the file could not be written).
  int finish(int code = 0) {
    // Exporter health check, printed with or without --json: dropped
    // spans mean the trace (and any bottleneck verdict from it) is
    // incomplete — the ring needs PPSTAP_TRACE_CAPACITY raised.
    if (obs::dropped_count() > 0)
      std::fprintf(stderr,
                   "warning: trace ring dropped %llu spans; raise "
                   "PPSTAP_TRACE_CAPACITY\n",
                   static_cast<unsigned long long>(obs::dropped_count()));
    if (path_.empty()) return code;
    obs::Json doc = obs::Json::object();
    doc["schema"] = "ppstap-bench-v1";
    doc["bench"] = name_;
    doc["exit_code"] = code;
    doc["robustness"] = robustness_summary();
    // Bottleneck verdict from whatever spans the bench left recorded (the
    // critical-path analyzer's Tables 7-10 computation); absent when no
    // spans were recorded.
    if (obs::span_count() > 0)
      doc["bottleneck"] = obs::analyze_spans(obs::snapshot()).to_json();
    for (auto& [k, v] : extra_) doc[k] = std::move(v);
    obs::Json rows = obs::Json::array();
    for (auto& r : rows_) rows.push_back(std::move(r));
    doc["rows"] = std::move(rows);
    const std::string text = doc.dump(2);
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\n[json] wrote %zu rows to %s\n", rows_.size(),
                path_.c_str());
    return code;
  }

 private:
  /// Every registry counter and gauge, recorded in every --json document:
  /// the run event log's counters (one per event kind; publishing an empty
  /// stream declares them, so a clean run writes all zeros) plus the front
  /// end's. A degraded run shows exactly how it degraded.
  static obs::Json robustness_summary() {
    core::publish({});
    const obs::Json reg = obs::Registry::global().to_json();
    obs::Json out = obs::Json::object();
    for (const char* section : {"counters", "gauges"})
      if (const obs::Json* m = reg.find(section); m != nullptr && m->is_object())
        for (const auto& [k, v] : m->as_object()) out[k] = v;
    // Trace exporter health: spans currently held and spans lost to
    // ring-buffer wrap (nonzero dropped_count invalidates chain stitching).
    out["trace.spans"] = obs::span_count();
    out["trace.dropped_count"] = obs::dropped_count();
    // Kernel dispatch provenance: which SIMD table produced these numbers
    // and why, so cross-host diffs can tell a regression from an ISA
    // mismatch (scripts/bench_compare.py refuses to compare across
    // different simd.level values).
    const kernels::SimdInfo si = kernels::simd_info();
    obs::Json simd = obs::Json::object();
    simd["level"] = si.level_name;
    simd["source"] = si.source;
    simd["lane_floats"] = static_cast<double>(si.lane_floats);
    simd["cpu_avx2"] = si.cpu_avx2 ? 1.0 : 0.0;
    simd["cpu_fma"] = si.cpu_fma ? 1.0 : 0.0;
    simd["compiled_avx2"] = si.compiled_avx2 ? 1.0 : 0.0;
    out["simd"] = std::move(simd);
    return out;
  }

  std::string name_;
  std::string path_;
  std::vector<obs::Json> rows_;
  std::vector<std::pair<std::string, obs::Json>> extra_;
};

inline void report_init(const char* name, int argc, char** argv) {
  JsonReport::instance().init(name, argc, argv);
}

/// Builds one row object from key/value pairs, preserving order.
inline obs::Json row(
    std::initializer_list<std::pair<const char*, obs::Json>> kv) {
  obs::Json r = obs::Json::object();
  for (const auto& [k, v] : kv) r[k] = v;
  return r;
}

inline void report_row(obs::Json r) {
  JsonReport::instance().add_row(std::move(r));
}

inline int report_finish(int code = 0) {
  return JsonReport::instance().finish(code);
}

inline core::PipelineSimulator paper_simulator() {
  return core::PipelineSimulator(stap::StapParams{},
                                 core::ParagonParams::calibrated());
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// "0.1234 (paper 0.1332)" column for side-by-side comparison.
inline void print_vs(double sim, double paper) {
  std::printf("  %7.4f (paper %7.4f)", sim, paper);
}

/// One full per-task table in the style of the paper's Table 7 panels.
/// Also records one JSON row per task plus a summary row under `case_id`
/// (the title when no explicit id is given).
inline void print_case_table(const core::PipelineSimulator& sim,
                             const core::NodeAssignment& a,
                             const char* title,
                             const char* case_id = nullptr) {
  const auto r = sim.simulate(a);
  const char* id = case_id != nullptr ? case_id : title;
  print_header(title);
  std::printf("%-28s %7s %8s %8s %8s %8s\n", "task", "# nodes", "recv",
              "comp", "send", "total");
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto& tt = r.timing[static_cast<size_t>(t)];
    std::printf("%-28s %7d %8.4f %8.4f %8.4f %8.4f\n",
                stap::task_name(static_cast<stap::Task>(t)),
                a.nodes[static_cast<size_t>(t)], tt.recv, tt.comp, tt.send,
                tt.total());
    report_row(row({{"case", id},
                    {"kind", "task_timing"},
                    {"task", stap::task_name(static_cast<stap::Task>(t))},
                    {"nodes", a.nodes[static_cast<size_t>(t)]},
                    {"recv_s", tt.recv},
                    {"comp_s", tt.comp},
                    {"send_s", tt.send},
                    {"total_s", tt.total()}}));
  }
  std::printf("throughput %7.4f CPI/s   latency %7.4f s\n",
              r.throughput_measured, r.latency_measured);
  report_row(row({{"case", id},
                  {"kind", "summary"},
                  {"total_nodes", a.total()},
                  {"throughput_eq_cpi_per_s", r.throughput_equation},
                  {"throughput_cpi_per_s", r.throughput_measured},
                  {"latency_eq_s", r.latency_equation},
                  {"latency_s", r.latency_measured}}));
}

}  // namespace ppstap::bench
