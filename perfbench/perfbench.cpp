// The repository benchmark: four seeded workloads on the default engine
// configuration at 4 ranks, each answer checked against the sequential
// oracles in queries/reference.hpp.
//
//   sssp-twitter  BSP SSSP from 3 seeded hubs, twitter-like RMAT scale 16
//   cc-grid       BSP CC on a 128x128 mesh with seeded node relabelling
//   serve-sssp    ServingEngine closed loop: one update batch + one lookup
//                 batch per step, twitter-like RMAT scale 14, 250 steps
//                 per --seconds
//   pagerank-ssp  PageRank, 20 rounds, async engine in SSP mode (staleness 1)
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// Everything is driven through the public API from outside src/: the
// harness times each layer call and reads the counters the calls already
// return (RunResult, UpdateResult, CommStats, B-tree comparison counters).
// Wall-clock medians come from the samples with the least hypervisor steal
// (quietest_half in trace.hpp); the vCPUs are shared with other guests.
// Human-readable lines go first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics", "meta"} that perfbench/run.py
// turns into the benchmark's result line.  Exit status is nonzero when any
// answer is wrong or any operation failed.
//
// Metric definitions and the layer -> end-to-end table: perfbench/METRICS.md.

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "paralagg/paralagg.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace paralagg;
using core::Phase;
using core::Tuple;
using core::value_t;

constexpr int kRanks = 4;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kL2Bytes = 8.0 * kMiB;
constexpr std::size_t kPagerankRounds = 20;
constexpr std::size_t kLookupKeys = 256;
constexpr std::size_t kMinReps = 3;
constexpr double kStepsPerSecond = 250;  // serving steps per --seconds
constexpr std::size_t kStepChunk = 32;   // serving steps per steal reading

// ---- arguments, report -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> meta;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  void set(const std::string& name, double v) { metrics[name] = v; }
};

/// Independent streams from one seed: graph, relabelling, hubs, updates,
/// lookup keys.
enum Purpose : std::uint64_t { kGraphSeed = 1, kRelabelSeed, kHubSeed, kUpdateSeed, kLookupSeed };

std::uint64_t subseed(std::uint64_t seed, Purpose p) {
  return storage::mix64(seed * 0x9e3779b97f4a7c15ULL + p);
}

double read_proc_status_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// CPU time the hypervisor gave to other guests while this machine wanted
/// to run, and all CPU time, in jiffies summed over CPUs (/proc/stat).
struct CpuTimes {
  double steal = 0, total = 0;
};

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  double v = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of the CPU time since `from` that the hypervisor stole.
double steal_since(const CpuTimes& from) {
  const auto now = cpu_times();
  return ratio(now.steal - from.steal, now.total - from.total);
}

double peak_rss_mib() { return read_proc_status_mib("VmHWM"); }
double rss_mib() { return read_proc_status_mib("VmRSS"); }

std::uint64_t calls_total(const vmpi::CommStats& s) {
  return std::accumulate(s.calls.begin(), s.calls.end(), std::uint64_t{0});
}

std::vector<core::Relation*> relations_of(const core::Program& program) {
  std::vector<core::Relation*> rels;
  for (const auto& r : program.relations()) rels.push_back(r.get());
  return rels;
}

std::uint64_t comparisons(const std::vector<core::Relation*>& rels) {
  std::uint64_t n = 0;
  for (const auto* r : rels) {
    n += r->tree(core::Version::kFull).comparisons() + r->tree(core::Version::kDelta).comparisons();
  }
  return n;
}

double phase_s(const core::ProfileSummary& p, Phase ph) {
  return p.modelled_seconds[static_cast<std::size_t>(ph)];
}

double phase_mib(const core::ProfileSummary& p, Phase ph) {
  return static_cast<double>(p.total_bytes[static_cast<std::size_t>(ph)]) / kMiB;
}

// ---- inputs ------------------------------------------------------------------

/// Twitter-like RMAT: a = 0.65 with the remaining mass split evenly, edge
/// factor 10 (the zoo's twitter-like shape at a benchmark-chosen seed).
graph::Graph twitter_like(int scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 10;
  p.a = 0.65;
  p.b = p.c = (1.0 - p.a) / 3.0;
  p.seed = subseed(seed, kGraphSeed);
  auto g = graph::make_rmat(p);
  g.name = "twitter-like-s" + std::to_string(scale);
  return g;
}

/// side x side mesh whose node ids are a seeded permutation, so owner
/// placement and label order change with the seed.  The corner keeps id 0:
/// the smallest label then always crosses the full diameter, so the
/// iteration count (2 * side - 1) does not change with the seed.
graph::Graph relabelled_grid(std::uint64_t side, std::uint64_t seed) {
  auto g = graph::make_grid(side, side, 10, subseed(seed, kGraphSeed));
  std::vector<value_t> perm(g.num_nodes);
  std::iota(perm.begin(), perm.end(), value_t{0});
  graph::Rng rng(subseed(seed, kRelabelSeed));
  for (std::size_t i = perm.size(); i > 2; --i) std::swap(perm[i - 1], perm[1 + rng.below(i - 1)]);
  for (auto& e : g.edges) {
    e.src = perm[e.src];
    e.dst = perm[e.dst];
  }
  g.name = "grid-" + std::to_string(side) + "x" + std::to_string(side) + "-relabelled";
  return g;
}

/// Three distinct hubs drawn by seed from the 16 highest-out-degree nodes
/// (hubs reach the giant component, so every seed gives a non-trivial run).
std::vector<value_t> seeded_hubs(const graph::Graph& g, std::uint64_t seed) {
  auto pool = g.pick_hubs(16);
  graph::Rng rng(subseed(seed, kHubSeed));
  std::vector<value_t> out;
  while (out.size() < 3 && !pool.empty()) {
    const auto i = rng.below(pool.size());
    out.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return out;
}

std::vector<Tuple> sorted_sssp_rows(const graph::Graph& g, const std::vector<value_t>& sources) {
  std::vector<Tuple> rows;
  for (const auto& [pair, d] : queries::reference::sssp(g, sources)) {
    rows.push_back(Tuple{pair.second, pair.first, d});  // stored order (to, from, dist)
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---- one batch query ---------------------------------------------------------

/// Everything one query repetition measured.
struct QuerySample {
  std::uint64_t op = 0;
  bool traced = false;
  double wall_s = 0;          // graph in memory -> answer on rank 0
  double steal_share = 0;     // hypervisor steal during the query
  core::RunResult run;        // identical on every rank; rank 0's copy
  vmpi::CommStats comm;       // all ranks, whole query
  std::uint64_t load_bytes = 0;
  std::uint64_t run_calls = 0;
  std::uint64_t rows_loaded = 0;
  std::uint64_t load_cmp = 0;     // B-tree comparisons during fact loading
  std::uint64_t input_cmp = 0;    // ... on input relations during the run
  std::uint64_t derived_cmp = 0;  // ... on derived relations during the run
  std::uint64_t output_rows = 0;
  double working_set_bytes = 0;   // stored tuple bytes at the fixpoint
  std::vector<Tuple> answer;      // rank 0's gathered answer
};

/// Per-rank counters, one slot per rank (each rank writes only its own).
struct RankCounters {
  std::uint64_t load_bytes = 0, run_calls = 0, rows_loaded = 0;
  std::uint64_t load_cmp = 0, input_cmp = 0, derived_cmp = 0, output_rows = 0;
  double stored_bytes = 0;
};

void fold(QuerySample& s, const std::vector<RankCounters>& rc) {
  for (const auto& c : rc) {
    s.load_bytes += c.load_bytes;
    s.run_calls += c.run_calls;
    s.rows_loaded += c.rows_loaded;
    s.load_cmp += c.load_cmp;
    s.input_cmp += c.input_cmp;
    s.derived_cmp += c.derived_cmp;
    s.output_rows += c.output_rows;
    s.working_set_bytes += c.stored_bytes;
  }
}

struct SsspKind {
  std::vector<value_t> sources;
  using Prog = queries::SsspProgram;
  static Prog build(vmpi::Comm& c) { return queries::build_sssp_program(c); }
  void load(Prog& p, const graph::Graph& g) const { queries::load_sssp_facts(p, g, sources); }
  static std::vector<core::Relation*> inputs(const Prog& p) { return {p.edge}; }
  static std::vector<core::Relation*> derived(const Prog& p) { return {p.spath}; }
  static core::Relation* answer(const Prog& p) { return p.spath; }
};

struct CcKind {
  using Prog = queries::CcProgram;
  static Prog build(vmpi::Comm& c) { return queries::build_cc_program(c); }
  static void load(Prog& p, const graph::Graph& g) { queries::load_cc_facts(p, g); }
  static std::vector<core::Relation*> inputs(const Prog& p) { return {p.edge}; }
  static std::vector<core::Relation*> derived(const Prog& p) { return {p.cc, p.comp}; }
  static core::Relation* answer(const Prog& p) { return p.cc; }
};

/// build -> load -> Engine::run -> gather, each call a span under one
/// "query" root.  Collective calls only; the counters ride per-rank slots.
template <class Kind>
QuerySample bsp_query(const Kind& kind, const graph::Graph& g, Tracer& tr, std::uint64_t op) {
  QuerySample s;
  s.op = op;
  s.traced = tr.on();
  std::vector<RankCounters> rc(kRanks);
  SpanScope root(tr, "query", -1, op);
  const auto t0 = Clock::now();
  s.comm = vmpi::run(kRanks, [&](vmpi::Comm& comm) {
    const bool lead = comm.rank() == 0;
    auto& c = rc[static_cast<std::size_t>(comm.rank())];
    const auto span = [&](const char* name) { return lead ? tr.begin(name, root.id(), op) : -1; };

    int id = span("queries.build");
    auto p = Kind::build(comm);
    tr.end(id);
    const auto all = relations_of(*p.program);

    const auto bytes0 = comm.stats().total_remote_bytes();
    id = span("queries.load");
    kind.load(p, g);
    tr.end(id);
    c.load_bytes = comm.stats().total_remote_bytes() - bytes0;
    for (const auto* r : all) c.rows_loaded += r->local_size(core::Version::kFull);
    c.load_cmp = comparisons(all);

    const auto in0 = comparisons(Kind::inputs(p));
    const auto der0 = comparisons(Kind::derived(p));
    const auto calls0 = calls_total(comm.stats());
    id = span("core.run");
    core::Engine engine(comm);
    auto run = engine.run(*p.program);
    tr.end(id);
    c.run_calls = calls_total(comm.stats()) - calls0;
    c.input_cmp = comparisons(Kind::inputs(p)) - in0;
    c.derived_cmp = comparisons(Kind::derived(p)) - der0;
    for (const auto* r : Kind::derived(p)) c.output_rows += r->local_size(core::Version::kFull);
    for (const auto* r : all) {
      c.stored_bytes += static_cast<double>(r->local_size(core::Version::kFull) * r->arity() *
                                            sizeof(value_t));
    }
    if (run.aborted_fault) {
      if (lead) s.run = std::move(run);
      return;
    }

    id = span("queries.gather");
    auto rows = Kind::answer(p)->gather_to_root(0);
    tr.end(id);
    if (lead) {
      s.run = std::move(run);
      s.answer = std::move(rows);
    }
  });
  s.wall_s = seconds_between(t0, Clock::now());
  fold(s, rc);
  return s;
}

/// PageRank on the async engine in SSP mode.  run_pagerank builds, loads,
/// runs and gathers internally, so the whole call is one span.
QuerySample pagerank_query(const graph::Graph& g, Tracer& tr, std::uint64_t op) {
  QuerySample s;
  s.op = op;
  s.traced = tr.on();
  SpanScope root(tr, "query", -1, op);
  const auto t0 = Clock::now();
  s.comm = vmpi::run(kRanks, [&](vmpi::Comm& comm) {
    queries::PagerankOptions opts;
    opts.rounds = kPagerankRounds;
    opts.collect_ranks = true;
    opts.tuning.use_async = true;
    opts.tuning.async.ssp = true;
    opts.tuning.async.ssp_staleness = 1;
    const bool lead = comm.rank() == 0;
    const int id = lead ? tr.begin("queries.pagerank", root.id(), op) : -1;
    auto res = queries::run_pagerank(comm, g, opts);
    tr.end(id);
    if (lead) {
      s.run = std::move(res.run);
      s.answer = std::move(res.ranks);
      s.output_rows = res.ranked_nodes;
    }
  });
  s.wall_s = seconds_between(t0, Clock::now());
  // Stored words: edge(2) + edeg(3) per edge, nodes(1) + outdeg(2) +
  // rank(2) per node.
  s.working_set_bytes = static_cast<double>((5 * g.edges.size() + 5 * g.num_nodes) *
                                            sizeof(value_t));
  return s;
}

/// Counters that must repeat exactly across BSP repetitions and reruns.
std::vector<std::uint64_t> fingerprint(const QuerySample& s) {
  std::uint64_t tuples = 0;
  for (const auto& st : s.run.strata) tuples += st.tuples_generated;
  return {s.comm.total_remote_bytes(),
          s.comm.total_steps(),
          s.comm.exchange_rounds(),
          s.run.profile.steps_total(),
          s.run.kernel.probes,
          s.run.kernel.probe_seeks,
          s.run.kernel.matches,
          s.load_cmp,
          s.input_cmp,
          s.derived_cmp,
          s.run.total_iterations,
          tuples,
          s.output_rows};
}

/// Compare `fp` with the record an earlier process left for this workload,
/// seed and binary; write the record when there is none.  Returns false on
/// drift.
bool matches_earlier_run(const Args& a, const std::string& key_suffix,
                         const std::vector<std::uint64_t>& fp) {
  struct stat st {};
  if (stat("/proc/self/exe", &st) != 0) return true;
  const std::string binary_id = std::to_string(st.st_size) + ":" + std::to_string(st.st_mtim.tv_sec) +
                                "." + std::to_string(st.st_mtim.tv_nsec);
  std::ostringstream line;
  for (auto v : fp) line << v << ' ';
  const auto dir = std::filesystem::path(a.work_dir) / "fingerprints";
  std::filesystem::create_directories(dir);
  const auto path = dir / (a.workload + "-" + std::to_string(a.seed) + key_suffix + ".txt");
  {
    std::ifstream in(path);
    std::string id, rec;
    if (std::getline(in, id) && std::getline(in, rec) && id == binary_id) return rec == line.str();
  }
  std::ofstream(path) << binary_id << '\n' << line.str() << '\n';
  return true;
}

// ---- shared setup pieces -----------------------------------------------------

std::string write_input(const Args& a, const graph::Graph& g, Report& rep) {
  const auto path = (std::filesystem::path(a.work_dir) / (a.workload + ".el")).string();
  graph::write_edge_list(g, path);
  rep.meta["input.name"] = g.name;
  rep.meta["input.nodes"] = std::to_string(g.num_nodes);
  rep.meta["input.edges"] = std::to_string(g.num_edges());
  rep.meta["input.text_bytes"] = std::to_string(std::filesystem::file_size(path));
  return path;
}

void record_working_set(double bytes, Report& rep) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", bytes / kMiB);
  rep.meta["input.working_set_mib"] = buf;
  rep.meta["input.working_set_vs_l2"] = bytes > kL2Bytes ? "above 8 MiB L2" : "within 8 MiB L2";
}

// ---- batch workloads ---------------------------------------------------------

struct BatchWorkload {
  graph::Graph input;
  std::function<QuerySample(const graph::Graph&, Tracer&, std::uint64_t)> query;
  /// Expected gathered answer, sorted like gather_to_root's output.
  std::function<std::vector<Tuple>(const graph::Graph&)> oracle;
  bool bsp = true;  // counters must repeat exactly (async: report spread)
};

void batch_metrics(const std::vector<QuerySample>& reps, Report& rep) {
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const auto& s : reps) v.push_back(f(s));
    return median(std::move(v));
  };
  rep.set("query_s", med([](const QuerySample& s) { return s.wall_s; }));
  rep.set("modelled_s", med([](const QuerySample& s) { return s.run.profile.modelled_total(); }));
  rep.set("remote_mib", med([](const QuerySample& s) {
            return static_cast<double>(s.comm.total_remote_bytes()) / kMiB;
          }));

  // Counters repeat exactly across BSP repetitions; the median also
  // covers the async workload, whose counters may vary.
  rep.set("storage.load_cmp_per_row",
          med([](const QuerySample& s) { return ratio(double(s.load_cmp), double(s.rows_loaded)); }));
  rep.set("vmpi.load_mib", med([](const QuerySample& s) { return double(s.load_bytes) / kMiB; }));
  const auto tuples = [](const QuerySample& s) {
    std::uint64_t t = 0;
    for (const auto& st : s.run.strata) t += st.tuples_generated;
    return double(t);
  };
  rep.set("core.tuples_generated", med(tuples));
  rep.set("core.keep_ratio", med([&](const QuerySample& s) { return ratio(double(s.output_rows), tuples(s)); }));
  rep.set("storage.fixpoint_cmp_per_row",
          med([&](const QuerySample& s) { return ratio(double(s.derived_cmp), tuples(s)); }));
  rep.set("core.probes", med([](const QuerySample& s) { return double(s.run.kernel.probes); }));
  rep.set("core.seek_ratio", med([](const QuerySample& s) {
            return ratio(double(s.run.kernel.probe_seeks), double(s.run.kernel.probes));
          }));
  rep.set("core.match_ratio", med([](const QuerySample& s) {
            return ratio(double(s.run.kernel.matches), double(s.run.kernel.probes));
          }));
  rep.set("storage.probe_cmp_per_probe", med([](const QuerySample& s) {
            return ratio(double(s.input_cmp), double(s.run.kernel.probes));
          }));
  rep.set("core.outer_shipped", med([](const QuerySample& s) { return double(s.run.kernel.outer_tuples_shipped); }));
  rep.set("core.kernel_imbalance", med([](const QuerySample& s) {
            return ratio(double(s.run.kernel_max.probes) * kRanks, double(s.run.kernel.probes));
          }));
  rep.set("core.iterations", med([](const QuerySample& s) { return double(s.run.total_iterations); }));
  rep.set("vmpi.steps", med([](const QuerySample& s) { return double(s.run.profile.steps_total()); }));
  rep.set("vmpi.exchange_rounds", med([](const QuerySample& s) { return double(s.run.profile.exchanges_total()); }));
  rep.set("vmpi.collective_calls", med([](const QuerySample& s) { return double(s.run_calls); }));

  const std::array<std::pair<const char*, Phase>, 7> phases{{{"core.balance_s", Phase::kBalance},
                                                             {"core.plan_s", Phase::kPlan},
                                                             {"core.intra_bucket_s", Phase::kIntraBucket},
                                                             {"core.local_join_s", Phase::kLocalJoin},
                                                             {"core.all_to_all_s", Phase::kAllToAll},
                                                             {"core.dedup_agg_s", Phase::kDedupAgg},
                                                             {"core.other_s", Phase::kOther}}};
  for (const auto& [name, ph] : phases) {
    rep.set(name, med([ph = ph](const QuerySample& s) { return phase_s(s.run.profile, ph); }));
  }
  rep.set("vmpi.all_to_all_mib", med([](const QuerySample& s) { return phase_mib(s.run.profile, Phase::kAllToAll); }));
  rep.set("vmpi.intra_bucket_mib", med([](const QuerySample& s) { return phase_mib(s.run.profile, Phase::kIntraBucket); }));
  rep.set("vmpi.balance_mib", med([](const QuerySample& s) { return phase_mib(s.run.profile, Phase::kBalance); }));

  const auto rank_wall = [](const QuerySample& s) { return kRanks * s.run.wall_seconds; };
  rep.set("core.busy_share", med([&](const QuerySample& s) {
            const auto& t = s.run.profile.total_cpu_seconds;
            return ratio(std::accumulate(t.begin(), t.end(), 0.0), rank_wall(s));
          }));
  const auto wait = [](const QuerySample& s) {
    const auto& w = s.run.profile.total_wait_seconds;
    return std::accumulate(w.begin(), w.end(), 0.0);
  };
  rep.set("vmpi.wait_s", med(wait));
  rep.set("vmpi.wait_share", med([&](const QuerySample& s) { return ratio(wait(s), rank_wall(s)); }));
}

void async_metrics(const std::vector<QuerySample>& reps, Report& rep) {
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const auto& s : reps) v.push_back(f(s));
    return median(std::move(v));
  };
  rep.set("async.run_wall_s", med([](const QuerySample& s) { return s.run.wall_seconds; }));
  rep.set("async.modelled_s", med([](const QuerySample& s) { return s.run.profile.modelled_total(); }));
  rep.set("async.p2p_messages", med([](const QuerySample& s) { return double(s.comm.messages_sent); }));
  rep.set("async.p2p_mib", med([](const QuerySample& s) { return double(s.comm.remote_bytes(vmpi::Op::kP2P)) / kMiB; }));
  rep.set("async.wait_share", med([](const QuerySample& s) {
            return ratio(s.comm.wait_seconds, kRanks * s.run.wall_seconds);
          }));
  // Counter spread across repetitions: (max - min) / median of the remote
  // bytes and of the p2p message count, whichever is wider.
  std::vector<double> bytes, messages;
  for (const auto& s : reps) {
    bytes.push_back(double(s.comm.total_remote_bytes()));
    messages.push_back(double(s.comm.messages_sent));
  }
  const auto spread = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return ratio(*hi - *lo, median(v));
  };
  rep.set("async.counter_spread", std::max(spread(bytes), spread(messages)));
}

/// One timed set-up: read the input file into `g`.
double timed_read(const std::string& path, graph::Graph& g, Tracer& tr, std::uint64_t op) {
  SpanScope root(tr, "setup", -1, op);
  SpanScope span(tr, "graph.read", root.id(), op);
  const auto t0 = Clock::now();
  g = graph::read_edge_list(path, "input");
  return seconds_between(t0, Clock::now());
}

void run_batch(const Args& a, BatchWorkload& w, Report& rep, Tracer& tr) {
  const auto path = write_input(a, w.input, rep);
  const auto text_bytes = static_cast<double>(std::filesystem::file_size(path));
  w.input = {};

  std::uint64_t next_op = 0;
  graph::Graph g;
  std::vector<double> reads;
  for (int i = 0; i < 3; ++i) reads.push_back(timed_read(path, g, tr, next_op++));

  // Oracle first, outside every timed region; its answer checks each rep.
  std::vector<Tuple> expected;
  {
    const auto op = next_op++;
    SpanScope root(tr, "check", -1, op);
    SpanScope span(tr, "check.oracle", root.id(), op);
    const auto t0 = Clock::now();
    expected = w.oracle(g);
    rep.set("oracle_s", seconds_between(t0, Clock::now()));
  }

  std::vector<std::uint64_t> base;
  const auto check = [&](QuerySample& s) {
    ++rep.attempted;
    if (s.run.aborted_fault || s.run.aborted_tuple_limit) {
      rep.fail("query aborted: " + s.run.fault_what);
    } else if (s.answer != expected) {
      rep.fail("answer differs from the sequential oracle (op " + std::to_string(s.op) + ")");
    } else if (w.bsp && fingerprint(s) != base) {
      rep.fail("BSP counters drifted between repetitions (op " + std::to_string(s.op) + ")");
    }
    s.answer = {};
  };

  // Warm-up: the first query after idling is several times slower, so it
  // is reported on its own and kept out of the medians.
  const auto warm_op = next_op++;
  auto warm = w.query(g, tr, warm_op);
  base = fingerprint(warm);
  check(warm);
  if (w.bsp && !matches_earlier_run(a, "", base)) {
    rep.fail("BSP counters differ from an earlier run with the same seed");
  }
  record_working_set(warm.working_set_bytes, rep);
  // Peak memory of one query's life cycle (read, oracle, query).  Taken
  // before the repetitions: each spawns fresh rank threads, and how much
  // freed memory their malloc arenas keep varies from process to process.
  rep.set("peak_rss_mib", peak_rss_mib());

  std::vector<QuerySample> reps;
  const auto cpu0 = cpu_times();
  const auto t0 = Clock::now();
  while ((reps.size() < kMinReps || seconds_between(t0, Clock::now()) < a.seconds) &&
         reps.size() < 1000) {
    // A trace run alternates traced and untraced repetitions; the
    // difference of their medians is the tracing overhead.
    if (a.trace) tr.set_on(reps.size() % 2 == 0);
    const auto c0 = cpu_times();
    reps.push_back(w.query(g, tr, next_op++));
    reps.back().steal_share = steal_since(c0);
    check(reps.back());
    // One more set-up sample after every repetition.  Back-to-back reads
    // stay on one vCPU, and vCPUs differ in speed by up to 1.5x on a
    // shared host; reads spread over the run mix them, which keeps the
    // median steady from run to run.
    graph::Graph scratch;
    reads.push_back(timed_read(path, scratch, tr, next_op++));
  }
  rep.set("setup_s", median(reads));
  rep.meta["setup.samples"] = std::to_string(reads.size());
  tr.set_on(a.trace);
  rep.meta["query.samples"] = std::to_string(reps.size());
  rep.meta["machine.steal_share"] = std::to_string(steal_since(cpu0));

  // The 4 vCPUs are shared with other guests.  Hypervisor steal inflates a
  // latency-bound BSP query up to several times, so the medians come from
  // the repetitions with the least steal; the all-repetition median is
  // printed beside them.
  std::vector<double> steal, walls;
  for (const auto& s : reps) {
    steal.push_back(s.steal_share);
    walls.push_back(s.wall_s);
  }
  std::vector<QuerySample> quiet;
  for (const auto i : quietest_half(steal)) quiet.push_back(reps[i]);
  rep.meta["query.samples_quiet"] = std::to_string(quiet.size());
  rep.meta["query.median_all_samples_s"] = std::to_string(median(walls));
  batch_metrics(quiet, rep);
  if (!w.bsp) async_metrics(quiet, rep);

  double retransmits = double(warm.comm.retransmits), dups = double(warm.comm.dup_frames_discarded);
  for (const auto& s : reps) {
    retransmits += double(s.comm.retransmits);
    dups += double(s.comm.dup_frames_discarded);
  }
  rep.set("vmpi.retransmits", retransmits);
  rep.set("vmpi.dup_discarded", dups);

  if (a.trace) {
    std::vector<std::uint64_t> traced_ops;
    std::vector<double> traced_wall, untraced_wall;
    for (const auto& s : reps) {
      (s.traced ? traced_wall : untraced_wall).push_back(s.wall_s);
      if (s.traced) traced_ops.push_back(s.op);
    }
    const auto spans = median_by_name(tr, traced_ops);
    const auto get = [&](const char* n) {
      const auto it = spans.find(n);
      return it == spans.end() ? 0.0 : it->second;
    };
    const auto read_s = median(reads);
    rep.set("graph.read_s", read_s);
    rep.set("graph.read_mb_per_s", ratio(text_bytes / 1e6, read_s));
    rep.set("queries.build_s", get("queries.build"));
    rep.set("queries.load_s", get("queries.load"));
    rep.set("queries.gather_s", get("queries.gather"));
    rep.set("core.run_s", get("core.run"));
    rep.set("queries.load_rows_per_s", ratio(double(reps.front().rows_loaded), get("queries.load")));
    rep.set("queries.warmup_load_s", median_by_name(tr, {warm_op})["queries.load"]);
    rep.set("trace.unattributed_share", unattributed_share(tr, "query", traced_ops));
    rep.set("trace.overhead_s", median(traced_wall) - median(untraced_wall));
  }
  rep.meta["query.warmup_s"] = std::to_string(warm.wall_s);
}

// ---- serving workload --------------------------------------------------------

struct Step {
  std::array<graph::Edge, 2> inserts;
  graph::Edge del;
};

/// Seeded update stream over the deduplicated edge set of `g`: per step one
/// delete of an edge present before the step and two uniform random edge
/// inserts.  ServingEngine applies a batch's deletes before its inserts;
/// the stream is built in that order, so no delete misses.
std::vector<Step> update_stream(const graph::Graph& g, std::uint64_t seed, std::size_t steps) {
  std::vector<graph::Edge> live(g.edges.begin(), g.edges.end());
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  std::set<graph::Edge> present(live.begin(), live.end());
  graph::Rng rng(subseed(seed, kUpdateSeed));
  const auto n = g.num_nodes;
  std::vector<Step> out(steps);
  for (auto& st : out) {
    const auto i = rng.below(live.size());
    st.del = live[i];
    live[i] = live.back();
    live.pop_back();
    present.erase(st.del);
    for (auto& e : st.inserts) {
      const value_t u = rng.below(n);
      value_t v = rng.below(n);
      if (v == u) v = (v + 1) % n;
      e = graph::Edge{u, v, 1 + rng.below(100)};
      if (present.insert(e).second) live.push_back(e);
    }
  }
  return out;
}

serving::UpdateBatch shard(const vmpi::Comm& comm, const Step& st) {
  // Three mutations dealt round-robin; each is contributed by one rank.
  serving::RelationDelta d;
  d.relation = "edge";
  const auto row = [](const graph::Edge& e) { return Tuple{e.src, e.dst, e.weight}; };
  if (comm.rank() == 0) d.inserts.push_back(row(st.inserts[0]));
  if (comm.rank() == 1) d.inserts.push_back(row(st.inserts[1]));
  if (comm.rank() == 2) d.deletes.push_back(row(st.del));
  return {std::move(d)};
}

std::vector<Tuple> lookup_keys(std::uint64_t seed, std::size_t step, std::uint64_t nodes) {
  graph::Rng rng(subseed(seed, kLookupSeed) + step);
  std::vector<Tuple> keys;
  keys.reserve(kLookupKeys);
  for (std::size_t i = 0; i < kLookupKeys; ++i) keys.push_back(Tuple{rng.below(nodes)});
  return keys;
}

bool sampled_step(std::size_t step) { return (step & (step - 1)) == 0; }  // 0, 1, 2, 4, 8, ...

struct StepLog {
  std::vector<double> update_ms, lookup_ms, step_ms;
  std::vector<bool> traced;
  std::uint64_t derived = 0, retracted = 0, recovered = 0, rounds = 0, tail_iters = 0;
  std::uint64_t lookup_rows = 0;
  std::vector<std::string> failures;
  std::map<std::size_t, std::vector<std::vector<Tuple>>> samples;  // step -> lookup result
  std::vector<Tuple> fixpoint;
  double rss_after_start = 0, rss_after_steps = 0;
  std::vector<double> chunk_steal;  // hypervisor steal share per kStepChunk steps
};

struct StepRankCounters {
  std::uint64_t update_bytes = 0, lookup_cmp = 0;
  std::vector<std::uint64_t> step_bytes;
  std::uint64_t load_bytes = 0, rows_loaded = 0, load_cmp = 0;  // the last bring-up's load
};

void run_serving(const Args& a, Report& rep, Tracer& tr) {
  const auto input = twitter_like(14, a.seed);
  const auto path = write_input(a, input, rep);
  const auto text_bytes = static_cast<double>(std::filesystem::file_size(path));
  const auto sources = seeded_hubs(input, a.seed);

  // A fixed number of steps per run second: the served state grows with
  // every step, so a time-bounded loop would make memory and per-batch
  // figures depend on the machine's speed.  The stream is generated before
  // anything is timed.
  const auto steps = static_cast<std::size_t>(std::max(1.0, kStepsPerSecond * a.seconds));
  const auto stream = update_stream(input, a.seed, steps);

  std::uint64_t next_op = 0;
  std::vector<double> bringups, reads;
  std::vector<std::uint64_t> setup_ops;
  StepLog log;
  std::vector<StepRankCounters> rc(kRanks);
  graph::Graph g;
  constexpr int kBringups = 3;
  const std::uint64_t first_step_op = kBringups;  // ops 0..2 are the bring-ups
  for (int b = 0; b < kBringups; ++b) {
    const bool serve = b == kBringups - 1;
    const auto op = next_op++;
    setup_ops.push_back(op);
    // The last bring-up's vmpi::run goes on serving, so rank 0 closes the
    // setup span when the service is up.
    const int root = tr.begin("setup", -1, op);
    const auto t0 = Clock::now();
    {
      SpanScope span(tr, "graph.read", root, op);
      g = graph::read_edge_list(path, "input");
    }
    reads.push_back(seconds_between(t0, Clock::now()));
    Clock::time_point ready{};
    vmpi::run(kRanks, [&](vmpi::Comm& comm) {
      const bool lead = comm.rank() == 0;
      auto& c = rc[static_cast<std::size_t>(comm.rank())];
      const auto span = [&](const char* name, int parent, std::uint64_t o) {
        return lead ? tr.begin(name, parent, o) : -1;
      };
      int id = span("queries.build", root, op);
      auto p = queries::build_sssp_program(comm);
      serving::ServingEngine srv(comm, *p.program, {});
      tr.end(id);
      const auto bytes0 = comm.stats().total_remote_bytes();
      id = span("queries.load", root, op);
      queries::load_sssp_facts(p, g, sources);
      tr.end(id);
      c.load_bytes = comm.stats().total_remote_bytes() - bytes0;
      const auto rels = relations_of(*p.program);
      c.rows_loaded = 0;
      for (const auto* r : rels) c.rows_loaded += r->local_size(core::Version::kFull);
      c.load_cmp = comparisons(rels);
      id = span("serving.start", root, op);
      srv.start();
      tr.end(id);
      if (lead) {
        ready = Clock::now();
        tr.end(root);
      }
      if (!serve) return;

      if (lead) log.rss_after_start = rss_mib();
      // Rank 0 reads the hypervisor steal share per chunk of steps: one
      // step is shorter than the 10 ms tick of /proc/stat.
      CpuTimes chunk_start;
      for (std::size_t step = 0; step < stream.size(); ++step) {
        if (lead && step % kStepChunk == 0) chunk_start = cpu_times();
        const auto batch = shard(comm, stream[step]);
        const auto keys = lookup_keys(a.seed, step, g.num_nodes);
        const bool traced = a.trace && step % 2 == 0;
        if (lead) tr.set_on(traced);
        const auto sop = first_step_op + step;
        const int sroot = span("step", -1, sop);
        const auto b0 = comm.stats().total_remote_bytes();
        const auto t_up = Clock::now();
        id = span("serving.apply_updates", sroot, sop);
        const auto res = srv.apply_updates(batch);
        tr.end(id);
        const auto t_look = Clock::now();
        const auto b1 = comm.stats().total_remote_bytes();
        const auto cmp0 = comparisons({p.spath});
        id = span("serving.lookup_batch", sroot, sop);
        auto rows = srv.lookup_batch("spath", keys);
        tr.end(id);
        const auto t_end = Clock::now();
        tr.end(sroot);
        c.update_bytes += b1 - b0;
        c.lookup_cmp += comparisons({p.spath}) - cmp0;
        c.step_bytes.push_back(comm.stats().total_remote_bytes() - b0);
        if (!lead) continue;
        log.update_ms.push_back(1e3 * seconds_between(t_up, t_look));
        log.lookup_ms.push_back(1e3 * seconds_between(t_look, t_end));
        log.step_ms.push_back(1e3 * seconds_between(t_up, t_end));
        log.traced.push_back(traced);
        if (res.aborted_fault || res.rolled_back) {
          log.failures.push_back("apply_updates aborted at step " + std::to_string(step) + ": " +
                                 res.fault_what);
        } else if (res.missing_deletes != 0) {
          log.failures.push_back("delete of a present edge missed at step " + std::to_string(step));
        }
        log.derived += res.tuples_derived;
        log.retracted += res.retracted;
        log.recovered += res.recovered;
        log.rounds += res.retraction_rounds;
        log.tail_iters += res.tail_iterations;
        for (const auto& r : rows) log.lookup_rows += r.size();
        if (sampled_step(step)) log.samples[step] = std::move(rows);
        if (step % kStepChunk == kStepChunk - 1 || step + 1 == stream.size()) {
          log.chunk_steal.push_back(steal_since(chunk_start));
        }
      }
      auto all = srv.lookup("spath", {});
      if (lead) {
        tr.set_on(a.trace);
        log.fixpoint = std::move(all);
        log.rss_after_steps = rss_mib();
      }
    });
    bringups.push_back(seconds_between(t0, ready));
  }
  next_op += steps;
  rep.set("peak_rss_mib", peak_rss_mib());  // the service after its last step

  // ---- checks, outside every timed region ----
  rep.attempted += 2 * steps;
  for (const auto& f : log.failures) rep.fail(f);

  // Sampled lookups against Dijkstra on the graph as it stood after that
  // step's batch.
  std::set<graph::Edge> edges(g.edges.begin(), g.edges.end());
  graph::Graph cur;
  cur.num_nodes = g.num_nodes;
  std::vector<double> oracle_s;
  for (std::size_t step = 0; step < steps; ++step) {
    edges.erase(stream[step].del);
    for (const auto& e : stream[step].inserts) edges.insert(e);
    const auto it = log.samples.find(step);
    if (it == log.samples.end()) continue;
    cur.edges.assign(edges.begin(), edges.end());
    const auto op = next_op++;
    SpanScope root(tr, "check", -1, op);
    SpanScope span(tr, "check.oracle", root.id(), op);
    const auto t0 = Clock::now();
    const auto oracle = queries::reference::sssp(cur, sources);
    oracle_s.push_back(seconds_between(t0, Clock::now()));
    const auto keys = lookup_keys(a.seed, step, g.num_nodes);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::vector<Tuple> want;
      for (const auto s : sources) {
        const auto o = oracle.find({s, keys[i][0]});
        if (o != oracle.end()) want.push_back(Tuple{keys[i][0], s, o->second});
      }
      std::sort(want.begin(), want.end());
      if (want != it->second[i]) {
        rep.fail("lookup at step " + std::to_string(step) + " differs from Dijkstra");
        break;
      }
    }
  }
  rep.set("oracle_s", median(oracle_s));

  // The final fixpoint against fresh batch queries on the mutated graph.
  cur.edges.assign(edges.begin(), edges.end());
  SsspKind kind{sources};
  std::vector<QuerySample> fresh;
  std::vector<std::uint64_t> base;
  const auto fresh_t0 = Clock::now();
  while (fresh.size() < 5 || (fresh.size() < 25 && seconds_between(fresh_t0, Clock::now()) < 2.0)) {
    const auto c0 = cpu_times();
    auto s = bsp_query(kind, cur, tr, next_op++);
    s.steal_share = steal_since(c0);
    ++rep.attempted;
    if (fresh.empty()) base = fingerprint(s);
    if (s.run.aborted_fault) {
      rep.fail("fresh query aborted: " + s.run.fault_what);
    } else if (s.answer != log.fixpoint) {
      rep.fail("served fixpoint differs from a fresh run_sssp on the mutated graph");
    } else if (fingerprint(s) != base) {
      rep.fail("BSP counters drifted between fresh queries");
    }
    s.answer = {};
    fresh.push_back(std::move(s));
  }
  std::vector<double> fresh_steal, qs, ms;
  for (const auto& s : fresh) fresh_steal.push_back(s.steal_share);
  for (const auto i : quietest_half(fresh_steal)) {
    qs.push_back(fresh[i].wall_s);
    ms.push_back(fresh[i].run.profile.modelled_total());
  }
  rep.set("serving.fresh_query_s", median(qs));
  // The engine exposes no per-batch profile, so modelled_s is that of the
  // fresh query the service stands in for.
  rep.set("modelled_s", median(ms));
  rep.meta["serving.fresh_queries"] = std::to_string(fresh.size());
  record_working_set(fresh.front().working_set_bytes, rep);

  // Latencies over the steps of the chunks with the least hypervisor steal
  // (see run_batch).  A client's request is one step: update, then read back.
  std::vector<double> quiet_step, quiet_update, quiet_lookup;
  for (const auto chunk : quietest_half(log.chunk_steal)) {
    for (auto i = chunk * kStepChunk; i < std::min(steps, (chunk + 1) * kStepChunk); ++i) {
      quiet_step.push_back(log.step_ms[i]);
      quiet_update.push_back(log.update_ms[i]);
      quiet_lookup.push_back(log.lookup_ms[i]);
    }
  }
  rep.set("query_s", 1e-3 * median(quiet_step));
  rep.set("serving.update_p50_ms", median(quiet_update));
  rep.set("serving.update_p99_ms", percentile(quiet_update, 0.99));
  rep.set("serving.lookup_p50_ms", median(quiet_lookup));
  rep.set("serving.lookup_p99_ms", percentile(quiet_lookup, 0.99));
  rep.set("serving.lookup_us_per_key", 1e3 * median(quiet_lookup) / double(kLookupKeys));
  rep.meta["serving.steps_quiet"] = std::to_string(quiet_step.size());
  rep.meta["serving.update_p99_samples_beyond"] =
      std::to_string(samples_beyond(quiet_update.size(), 0.99));
  rep.meta["serving.median_all_steps_ms"] = std::to_string(median(log.step_ms));
  rep.meta["machine.steal_share"] = std::to_string(
      std::accumulate(log.chunk_steal.begin(), log.chunk_steal.end(), 0.0) /
      double(std::max<std::size_t>(log.chunk_steal.size(), 1)));

  const double n = static_cast<double>(steps);
  std::uint64_t update_bytes = 0, lookup_cmp = 0, load_bytes = 0, rows_loaded = 0, load_cmp = 0;
  for (const auto& c : rc) {
    update_bytes += c.update_bytes;
    lookup_cmp += c.lookup_cmp;
    rows_loaded += c.rows_loaded;
    load_cmp += c.load_cmp;
    load_bytes += c.load_bytes;
  }
  rep.set("setup_s", median(bringups));
  // Median over steps: a rare delete near a hub retracts a large part of
  // the fixpoint, and a mean over a few thousand steps would swing with
  // how many of those a seed draws (their share is in
  // serving.update_kib_per_batch, a mean).
  std::vector<double> step_bytes(steps, 0.0);
  for (const auto& c : rc) {
    for (std::size_t i = 0; i < steps; ++i) step_bytes[i] += double(c.step_bytes[i]);
  }
  rep.set("remote_mib", median(step_bytes) / kMiB);
  rep.set("serving.steps", n);
  rep.set("serving.tuples_derived_per_batch", double(log.derived) / n);
  rep.set("serving.retracted_per_batch", double(log.retracted) / n);
  rep.set("serving.recovered_per_batch", double(log.recovered) / n);
  rep.set("serving.retraction_rounds_per_batch", double(log.rounds) / n);
  rep.set("serving.tail_iterations_per_batch", double(log.tail_iters) / n);
  rep.set("serving.update_kib_per_batch", double(update_bytes) / n / 1024.0);
  rep.set("serving.rss_growth_mib", log.rss_after_steps - log.rss_after_start);
  rep.set("serving.lookup_rows_per_key", double(log.lookup_rows) / (n * double(kLookupKeys)));
  rep.set("storage.lookup_cmp_per_key", double(lookup_cmp) / (n * double(kLookupKeys)));
  rep.set("vmpi.load_mib", double(load_bytes) / kMiB);
  rep.set("storage.load_cmp_per_row", ratio(double(load_cmp), double(rows_loaded)));

  // The whole trajectory is fixed by the seed and the step count, so its
  // counters must repeat exactly on a rerun.
  const double total_bytes = std::accumulate(step_bytes.begin(), step_bytes.end(), 0.0);
  const std::vector<std::uint64_t> fp{log.derived, log.retracted, log.recovered, log.rounds,
                                      log.tail_iters, log.lookup_rows,
                                      static_cast<std::uint64_t>(total_bytes)};
  if (!matches_earlier_run(a, "-" + std::to_string(steps), fp)) {
    rep.fail("serving counters differ from an earlier run with the same seed and step count");
  }
  rep.meta["serving.loop"] = "closed loop, one client; each step = apply_updates(2 ins + 1 del) + lookup_batch(256 keys)";

  if (a.trace) {
    std::vector<std::uint64_t> traced_ops;
    std::vector<double> traced_ms, untraced_ms;
    for (std::size_t s = 0; s < log.traced.size(); ++s) {
      if (log.traced[s]) traced_ops.push_back(s);
      (log.traced[s] ? traced_ms : untraced_ms).push_back(log.step_ms[s]);
    }
    for (auto& o : traced_ops) o += first_step_op;
    const auto setup = median_by_name(tr, setup_ops);
    const auto get = [&](const char* name) {
      const auto it = setup.find(name);
      return it == setup.end() ? 0.0 : it->second;
    };
    rep.set("graph.read_s", median(reads));
    rep.set("graph.read_mb_per_s", ratio(text_bytes / 1e6, median(reads)));
    rep.set("queries.build_s", get("queries.build"));
    rep.set("queries.load_s", get("queries.load"));
    rep.set("queries.load_rows_per_s", ratio(double(rows_loaded), get("queries.load")));
    rep.set("serving.start_s", get("serving.start"));
    rep.set("queries.warmup_load_s", median_by_name(tr, {setup_ops.front()})["queries.load"]);
    rep.set("trace.unattributed_share", unattributed_share(tr, "step", traced_ops));
    rep.set("trace.overhead_s", 1e-3 * (median(traced_ms) - median(untraced_ms)));
  }
}

// ---- main --------------------------------------------------------------------

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.failed == 0 ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  const char* sep = "";
  for (const auto& [k, v] : rep.metrics) {
    std::printf("%s\"%s\": %.9g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}, \"meta\": {");
  sep = "";
  for (const auto& [k, v] : rep.meta) {
    std::printf("%s\"%s\": \"%s\"", sep, k.c_str(), json_escape(v).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int run_main(const Args& a, Report& rep) {
  Tracer tr(a.trace);
  rep.meta["workload"] = a.workload;
  rep.meta["seed"] = std::to_string(a.seed);
  rep.meta["ranks"] = std::to_string(kRanks);
  rep.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.meta["compiler"] = __VERSION__;
  rep.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::filesystem::create_directories(a.work_dir);

  if (a.workload == "sssp-twitter") {
    BatchWorkload w;
    w.input = twitter_like(16, a.seed);
    const auto sources = seeded_hubs(w.input, a.seed);
    SsspKind kind{sources};
    w.query = [kind](const graph::Graph& g, Tracer& t, std::uint64_t op) { return bsp_query(kind, g, t, op); };
    w.oracle = [sources](const graph::Graph& g) { return sorted_sssp_rows(g, sources); };
    run_batch(a, w, rep, tr);
  } else if (a.workload == "cc-grid") {
    BatchWorkload w;
    w.input = relabelled_grid(128, a.seed);
    w.query = [](const graph::Graph& g, Tracer& t, std::uint64_t op) { return bsp_query(CcKind{}, g, t, op); };
    w.oracle = [](const graph::Graph& g) {
      std::vector<Tuple> rows;
      for (const auto& [node, label] : queries::reference::cc_labels(g)) rows.push_back(Tuple{node, label});
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    run_batch(a, w, rep, tr);
  } else if (a.workload == "pagerank-ssp") {
    BatchWorkload w;
    w.input = twitter_like(15, a.seed);
    w.query = pagerank_query;
    w.oracle = [](const graph::Graph& g) {
      const auto ranks = queries::reference::pagerank(g, kPagerankRounds);
      std::vector<Tuple> rows;
      for (value_t v = 0; v < ranks.size(); ++v) rows.push_back(Tuple{v, ranks[v]});
      return rows;
    };
    w.bsp = false;
    run_batch(a, w, rep, tr);
  } else if (a.workload == "serve-sssp") {
    run_serving(a, rep, tr);
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }

  rep.set("error_rate", ratio(double(rep.failed), double(rep.attempted)));
  if (a.trace) {
    const auto path = std::filesystem::path(a.work_dir) /
                      ("spans-" + a.workload + "-" + std::to_string(a.seed) + ".jsonl");
    tr.write(path.string());
    rep.meta["trace.spans_file"] = path.string();
  }
  for (const auto& e : rep.errors) std::printf("FAILED: %s\n", e.c_str());
  return rep.failed == 0 && rep.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Report rep;
  int code = 1;
  try {
    code = perfbench::run_main(perfbench::parse(argc, argv), rep);
  } catch (const std::exception& e) {
    std::printf("FAILED: %s\n", e.what());
    rep.fail(e.what());
    code = 1;
  }
  std::fflush(stdout);
  perfbench::print_result(rep);
  return code;
}
