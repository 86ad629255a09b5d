// uvmbench: the end-to-end and per-layer benchmark program for uvmsim.
//
// Runs one paper-scale experiment once, in a single thread, through the
// library's public API. It times every call into a layer from outside with
// std::chrono::steady_clock, derives the simulated-clock split from the
// batch log and RunResult, and checks the run for correctness outside the
// timed region. Prints one JSON object on its last stdout line.
//
//   uvmbench --workload sgemm-oversub --seed 24301 --trace 0 --out DIR
//
// --trace 1 runs with SystemConfig::obs tracing and metrics on and adds the
// obs.* metrics. run.py starts one process per repetition, so that every
// repetition starts from the same fresh heap, and aggregates them.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/log_io.hpp"
#include "analysis/summary.hpp"
#include "core/system.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace uvmsim;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kNsPerMs = 1e6;

// ---- Workloads ----------------------------------------------------------
//
// Each one makes a different layer dominate host time (see README.md for
// the profile shares behind each choice). `sm_faults_ref` is the paper's
// Table 2 average faults per SM per batch for the same application.
struct Workload {
  const char* name;
  std::uint64_t gpu_mb;
  double sm_faults_ref;
  std::function<WorkloadSpec(std::uint64_t seed)> make;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sgemm-oversub", 128, 0.85,
       [](std::uint64_t) {
         GemmParams p;
         p.n = 4096;
         return make_gemm(p);
       }},
      {"random-thrash", 256, 3.03,
       [](std::uint64_t seed) {
         return make_random(2ULL << 30, seed, 4, 320, 256);
       }},
      {"hpgmg-fit", 4096, 0.41,
       [](std::uint64_t) {
         HpgmgParams p;
         p.fine_elements_log2 = 25;
         p.vcycles = 8;
         p.host_threads = 32;
         p.interleaved_init = true;
         return make_hpgmg(p);
       }},
  };
  return all;
}

// ---- Correctness checks -------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of everything simulated the benchmark reports: the batch log
/// text plus the RunResult aggregates and the executed event count.
std::string sim_digest(const std::string& log_text, const RunResult& r,
                       std::uint64_t events) {
  std::ostringstream agg;
  agg << "kernel_time_ns=" << r.kernel_time_ns
      << " batch_time_ns=" << r.batch_time_ns
      << " gpu_compute_ns=" << r.gpu_compute_ns
      << " total_faults=" << r.total_faults
      << " duplicate_emissions=" << r.duplicate_emissions
      << " replays=" << r.replays << " evictions=" << r.evictions
      << " bytes_h2d=" << r.bytes_h2d << " bytes_d2h=" << r.bytes_d2h
      << " events=" << events << '\n';
  return hex64(fnv1a64(agg.str(), fnv1a64(log_text)));
}

/// The conservation identities of tests/test_invariants.cpp's
/// check_run_invariants, restated through the public API. Returns the
/// first violation, or nothing.
std::optional<std::string> check_invariants(const System& system,
                                            const RunResult& result) {
  for (const auto& rec : result.log) {
    const auto& c = rec.counters;
    if (c.raw_faults !=
        c.unique_faults + c.dup_same_utlb + c.dup_cross_utlb) {
      return "batch " + std::to_string(rec.id) +
             ": raw != unique + duplicates";
    }
    if (rec.duration_ns() > rec.phases.sum()) {
      return "batch " + std::to_string(rec.id) + ": duration > phase sum";
    }
  }
  const auto& space = system.driver().va_space();
  if (space.gpu_resident_pages() * kPageSize >
      system.config().gpu.memory_bytes) {
    return std::string("resident bytes exceed GPU memory");
  }
  for (VaBlockId b = 0; b < space.block_count(); ++b) {
    const auto& block = space.block(b);
    if ((block.populated() & ~(block.gpu_resident() | block.host_data()))
            .any()) {
      return "block " + std::to_string(b) + " has orphaned populated pages";
    }
  }
  return std::nullopt;
}

// ---- Tracing aggregates -------------------------------------------------

struct SpanAggregate {
  std::uint64_t count = 0;
  SimTime total_ns = 0;
  std::int64_t self_ns = 0;  // signed: overlapping siblings may overcover
};

/// Simulated self time per (track, span name): each span's duration minus
/// the part of it covered by spans nested inside it on the same track.
std::map<std::pair<TrackId, std::string>, SpanAggregate> aggregate_spans(
    const Tracer& tracer) {
  std::map<TrackId, std::vector<const TraceEvent*>> by_track;
  for (const auto& e : tracer.events()) {
    if (e.kind == TraceEvent::Kind::kSpan) by_track[e.track].push_back(&e);
  }
  std::map<std::pair<TrackId, std::string>, SpanAggregate> out;
  for (auto& [track, spans] : by_track) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->begin_ns != b->begin_ns
                                  ? a->begin_ns < b->begin_ns
                                  : a->end_ns > b->end_ns;
                     });
    struct Open {
      SpanAggregate* agg;
      SimTime end_ns;
    };
    std::vector<Open> stack;
    for (const TraceEvent* e : spans) {
      while (!stack.empty() && stack.back().end_ns <= e->begin_ns) {
        stack.pop_back();
      }
      const SimTime dur = e->end_ns - e->begin_ns;
      if (!stack.empty()) {
        stack.back().agg->self_ns -= static_cast<std::int64_t>(
            std::min(e->end_ns, stack.back().end_ns) - e->begin_ns);
      }
      SpanAggregate& agg = out[{track, e->name}];
      ++agg.count;
      agg.total_ns += dur;
      agg.self_ns += static_cast<std::int64_t>(dur);
      stack.push_back({&agg, e->end_ns});
    }
  }
  return out;
}

void write_span_aggregates(
    const std::string& path, const Tracer& tracer,
    const std::map<std::pair<TrackId, std::string>, SpanAggregate>& aggs) {
  std::ofstream out(path);
  out << "track\tname\tcount\ttotal_ns\tself_ns\n";
  for (const auto& [key, agg] : aggs) {
    const auto it = tracer.track_names().find(key.first);
    out << (it != tracer.track_names().end() ? it->second
                                             : std::to_string(key.first))
        << '\t' << key.second << '\t' << agg.count << '\t' << agg.total_ns
        << '\t' << agg.self_ns << '\n';
  }
}

// ---- One experiment -----------------------------------------------------

/// Host seconds of each span the benchmark records around a public call.
struct HostSpans {
  double build = 0;      // workloads: make_* spec build
  double construct = 0;  // core: System constructor
  double run = 0;        // core: System::run
  double log_write = 0;  // analysis: write_batch_log to a file
  double summary = 0;    // analysis: the reductions reported below
  double teardown = 0;   // core: destroying System, RunResult and spec
  double wall = 0;       // all of the above plus the glue between them
  double log_read = 0;   // analysis: read_batch_log (correctness check)
  double export_s = 0;   // obs: trace_to_json + metrics_to_json

  double covered() const noexcept {
    return build + construct + run + log_write + summary + teardown;
  }
};

struct Summary {
  BatchPhaseTimes phases;
  FaultTotals faults;
  VaBlockStatsRow vablocks;
  SmStatsRow sm;
  std::uint64_t pages_migrated = 0;
  std::uint64_t pages_prefetched = 0;
  std::uint64_t unmap_calls = 0;
  std::uint64_t pages_unmapped = 0;
  std::uint64_t radix_nodes = 0;
};

Summary summarize(const BatchLog& log, std::uint32_t num_sms) {
  Summary s;
  s.phases = phase_totals(log);
  s.faults = fault_totals(log);
  s.vablocks = vablock_stats(log);
  s.sm = sm_stats(log, num_sms);
  for (const auto& rec : log) {
    s.pages_migrated += rec.counters.pages_migrated;
    s.pages_prefetched += rec.counters.pages_prefetched;
    s.unmap_calls += rec.counters.unmap_calls;
    s.pages_unmapped += rec.counters.pages_unmapped;
    s.radix_nodes += rec.counters.radix_nodes_allocated;
  }
  return s;
}

/// What the experiment simulated, kept past the timed teardown.
struct SimOutcome {
  RunResult result;  // without its log
  Summary summary;
  std::uint64_t page_accesses = 0;
  std::uint64_t access_groups = 0;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  double log_mb = 0;
};

struct TraceOutcome {
  std::uint64_t events = 0;
  double trace_mb = 0;
};

struct Experiment {
  HostSpans host;
  std::string digest;
  std::optional<std::string> failure;
  SimOutcome sim;
  std::optional<TraceOutcome> trace;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0x5eed;
  bool trace = false;
  std::string out_dir = ".";
};

Experiment run_experiment(const Options& opt) {
  const bool traced = opt.trace;
  Experiment ex;
  HostSpans& h = ex.host;
  const std::string log_path =
      opt.out_dir + "/" + opt.workload->name + ".batchlog";

  // Each span has its own clock reads; wall_s reads the clock separately,
  // so whatever the spans miss shows up as host.uncovered_s.
  auto timed = [](double& span, auto&& call) {
    const auto s0 = Clock::now();
    call();
    span = seconds_between(s0, Clock::now());
  };
  const auto wall0 = Clock::now();
  std::unique_ptr<WorkloadSpec> spec;
  timed(h.build, [&] {
    spec = std::make_unique<WorkloadSpec>(opt.workload->make(opt.seed));
  });
  SystemConfig cfg = presets::scaled_titan_v(opt.workload->gpu_mb);
  cfg.seed = opt.seed;
  cfg.obs.trace = traced;
  cfg.obs.metrics = traced;
  std::unique_ptr<System> system;
  timed(h.construct, [&] { system = std::make_unique<System>(cfg); });
  std::unique_ptr<RunResult> result;
  timed(h.run, [&] {
    result = std::make_unique<RunResult>(system->run(*spec));
  });
  timed(h.log_write, [&] {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    write_batch_log(out, result->log);
    out.close();
    if (!out) ex.failure = "cannot write " + log_path;
  });
  Summary summary;
  timed(h.summary,
        [&] { summary = summarize(result->log, cfg.gpu.num_sms); });
  h.wall = seconds_between(wall0, Clock::now());

  // ---- Untimed for wall_s: correctness checks ---------------------------
  const std::uint64_t events = system->engine_stats().executed;
  std::string log_text;
  {
    std::ifstream in(log_path, std::ios::binary);
    log_text.assign(std::istreambuf_iterator<char>(in), {});
  }
  ex.digest = sim_digest(log_text, *result, events);
  if (!ex.failure) ex.failure = check_invariants(*system, *result);
  {
    std::ifstream in(log_path, std::ios::binary);
    const auto r0 = Clock::now();
    ParseResult parsed = read_batch_log(in);
    h.log_read = seconds_between(r0, Clock::now());
    std::ostringstream again;
    write_batch_log(again, parsed.log);
    if (!ex.failure && parsed.skipped_lines != 0) {
      ex.failure = "read_batch_log skipped " +
                   std::to_string(parsed.skipped_lines) + " lines";
    }
    if (!ex.failure && again.str() != log_text) {
      ex.failure = std::string("batch log does not re-serialize identically");
    }
  }
  if (traced) {
    // Only the exported size is kept: the Chrome JSON itself is discarded,
    // and the per-(track, name) aggregates below are what gets written.
    std::size_t export_bytes = 0;
    timed(h.export_s, [&] {
      export_bytes = trace_to_json(system->tracer()).size() +
                     metrics_to_json(system->metrics()).size();
    });
    ex.trace = TraceOutcome{system->tracer().size(),
                            static_cast<double>(export_bytes) / kMiB};
    write_span_aggregates(opt.out_dir + "/" + opt.workload->name +
                              ".trace_spans.tsv",
                          system->tracer(), aggregate_spans(system->tracer()));
  }

  SimOutcome& sim = ex.sim;
  sim.page_accesses = spec->kernel.total_accesses();
  for (const auto& b : spec->kernel.blocks) {
    for (const auto& w : b.warps) sim.access_groups += w.groups.size();
  }
  sim.events = events;
  sim.batches = result->log.size();
  sim.log_mb = static_cast<double>(log_text.size()) / kMiB;
  sim.summary = std::move(summary);
  sim.result = *result;
  sim.result.log = {};  // the timed teardown below frees the full log

  const auto teardown0 = Clock::now();
  timed(h.teardown, [&] {
    result.reset();
    system.reset();
    spec.reset();
  });
  h.wall += seconds_between(teardown0, Clock::now());
  return ex;
}

// ---- Reporting ----------------------------------------------------------

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

class MetricSink {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!first_) body_ << ", ";
    first_ = false;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    body_ << '"' << name << "\": {\"value\": " << num << ", \"unit\": \""
          << unit << "\"}";
  }
  std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostringstream body_;
  bool first_ = true;
};

double ms(SimTime ns) { return static_cast<double>(ns) / kNsPerMs; }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

int usage() {
  std::fprintf(stderr,
               "usage: uvmbench --workload NAME --seed N --trace 0|1 "
               "--out DIR\nworkloads:");
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const auto& w : workloads()) {
        if (val == w.name) opt.workload = &w;
      }
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 0);
      if (end == val.c_str() || *end != '\0') return usage();
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage();
      opt.trace = val == "1";
    } else if (key == "--out") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workload == nullptr) return usage();

  const Experiment ex = run_experiment(opt);
  const HostSpans& h = ex.host;
  std::fprintf(stderr,
               "wall %.3f s = build %.3f + construct %.3f + run %.3f + "
               "log_write %.3f + summary %.3f + teardown %.3f\n",
               h.wall, h.build, h.construct, h.run, h.log_write, h.summary,
               h.teardown);

  const SimOutcome& sim = ex.sim;
  const RunResult& r = sim.result;
  const Summary& s = sim.summary;
  const double batches = static_cast<double>(sim.batches);

  MetricSink m;
  // End to end. pass_rate is counted across repetitions by run.py.
  m.add("wall_s", h.wall, "s");
  m.add("setup_s", h.build + h.construct, "s");
  m.add("faults_per_s", static_cast<double>(r.total_faults) / h.run, "1/s");
  m.add("peak_rss_mb", peak_rss_mib(), "MiB");
  m.add("sim_kernel_ms", ms(r.kernel_time_ns), "ms");
  // workloads
  m.add("workloads.build_s", h.build, "s");
  m.add("workloads.page_accesses", static_cast<double>(sim.page_accesses),
        "count");
  m.add("workloads.access_groups", static_cast<double>(sim.access_groups),
        "count");
  // core
  m.add("core.construct_s", h.construct, "s");
  m.add("core.run_s", h.run, "s");
  m.add("core.teardown_s", h.teardown, "s");
  m.add("core.events", static_cast<double>(sim.events), "count");
  m.add("core.host_us_per_batch", batches > 0 ? h.run / batches * 1e6 : 0,
        "us");
  // gpu
  m.add("gpu.faults_emitted", static_cast<double>(r.total_faults), "count");
  m.add("gpu.duplicate_emissions", static_cast<double>(r.duplicate_emissions),
        "count");
  m.add("gpu.replays", static_cast<double>(r.replays), "count");
  m.add("gpu.compute_ms", ms(r.gpu_compute_ns), "ms");
  m.add("gpu.pagetable_ms", ms(s.phases.pagetable_ns), "ms");
  m.add("gpu.replay_ms", ms(s.phases.replay_ns), "ms");
  m.add("gpu.sm_faults_avg", s.sm.avg, "faults");
  m.add("gpu.sm_faults_avg_rel_err",
        std::abs(s.sm.avg - opt.workload->sm_faults_ref) /
            opt.workload->sm_faults_ref,
        "ratio");
  // uvm
  m.add("uvm.batches", batches, "count");
  m.add("uvm.batch_ms", ms(r.batch_time_ns), "ms");
  m.add("uvm.unique_ratio",
        s.faults.raw ? static_cast<double>(s.faults.unique) /
                           static_cast<double>(s.faults.raw)
                     : 0,
        "ratio");
  m.add("uvm.vablocks_per_batch", s.vablocks.vablocks_per_batch, "count");
  m.add("uvm.faults_per_vablock", s.vablocks.faults_per_vablock, "count");
  m.add("uvm.evictions", static_cast<double>(r.evictions), "count");
  m.add("uvm.pages_migrated", static_cast<double>(s.pages_migrated), "count");
  m.add("uvm.pages_prefetched", static_cast<double>(s.pages_prefetched),
        "count");
  m.add("uvm.fetch_ms", ms(s.phases.fetch_ns), "ms");
  m.add("uvm.dedup_ms", ms(s.phases.dedup_ns), "ms");
  m.add("uvm.vablock_ms", ms(s.phases.vablock_ns), "ms");
  m.add("uvm.eviction_ms", ms(s.phases.eviction_ns), "ms");
  m.add("uvm.prefetch_ms", ms(s.phases.prefetch_ns), "ms");
  // hostos
  m.add("hostos.unmap_ms", ms(s.phases.unmap_ns), "ms");
  m.add("hostos.unmap_calls", static_cast<double>(s.unmap_calls), "count");
  m.add("hostos.pages_unmapped", static_cast<double>(s.pages_unmapped),
        "count");
  m.add("hostos.populate_ms", ms(s.phases.populate_ns), "ms");
  m.add("hostos.dma_map_ms", ms(s.phases.dma_map_ns), "ms");
  m.add("hostos.radix_nodes", static_cast<double>(s.radix_nodes), "count");
  // interconnect
  m.add("interconnect.transfer_ms", ms(s.phases.transfer_ns), "ms");
  m.add("interconnect.h2d_mb", static_cast<double>(r.bytes_h2d) / kMiB,
        "MiB");
  m.add("interconnect.d2h_mb", static_cast<double>(r.bytes_d2h) / kMiB,
        "MiB");
  // analysis
  m.add("analysis.log_write_s", h.log_write, "s");
  m.add("analysis.log_read_s", h.log_read, "s");
  m.add("analysis.summary_s", h.summary, "s");
  m.add("analysis.log_mb", sim.log_mb, "MiB");
  // The benchmark's own spans against wall_s.
  m.add("host.wall_s", h.wall, "s");
  m.add("host.uncovered_s", h.wall - h.covered(), "s");
  // obs (traced run only; run.py adds obs.run_overhead)
  if (ex.trace) {
    m.add("obs.trace_events", static_cast<double>(ex.trace->events),
          "count");
    m.add("obs.trace_mb", ex.trace->trace_mb, "MiB");
    m.add("obs.export_s", h.export_s, "s");
    m.add("obs.peak_rss_mb", peak_rss_mib(), "MiB");
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", "
      "\"failure\": %s, \"metrics\": %s}\n",
      opt.workload->name, static_cast<unsigned long long>(opt.seed),
      ex.digest.c_str(),
      ex.failure ? json_string(*ex.failure).c_str() : "null",
      m.str().c_str());
  return 0;
}
