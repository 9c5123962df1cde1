// ctsim_perfbench: the measuring program behind perfbench/run.py.
//
// One invocation runs one workload against the shipped default
// cts::SynthesisOptions (only num_threads is ever set) and prints one
// JSON result line last on stdout, without the set-up metrics: run.py
// adds those from fresh-process probes. Every layer is measured from
// outside, by timing calls into its public functions and reading the
// counters the library already exposes. See perfbench/BENCHMARK.md
// for the workloads, the metrics and the layer -> metric map.
//
//   ctsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//   ctsim_perfbench --probe setup --workload NAME     one fresh set-up
//   ctsim_perfbench --probe characterize              cold library fit
//
// The delay-library cache lives in CTSIM_CACHE_DIR (run.py points it
// inside the checkout). Exit status: 0 when every correctness check
// passed, 1 when one failed, 2 on a usage error.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_io/synthetic.h"
#include "circuit/stages.h"
#include "cts/maze.h"
#include "cts/phase_profile.h"
#include "cts/scenario.h"
#include "cts/synthesizer.h"
#include "cts/topology.h"
#include "delaylib/fitted_library.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/session.h"
#include "sim/netlist_sim.h"
#include "tech/buffer_lib.h"
#include "tech/technology.h"
#include "trace.h"

namespace {

using namespace ctsim;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::seconds_between;
using perfbench::Trace;

constexpr const char* kLibraryCache = "ctsim_delaylib_45nm.cache";
constexpr double kSloMs = 250.0;            ///< serve p99 limit
constexpr double kMaxGeneratorLagMs = 50.0; ///< beyond this a serve run is invalid
constexpr int kServeWorkers = 2;
/// req/s: about half of the 66-110 req/s the saturation loops measure
/// on 2 workers (4-vCPU host), where the mix's mean service time is
/// 21-35 ms. At half load the latency follows service time. At 30
/// req/s it did not hold steadier, and each window took longer.
constexpr double kReferenceRate = 40.0;
/// Requests per reference-rate window: the 32 pool entries once each.
constexpr int kWindowRequests = 32;
/// Served, checked and not timed before each chunk's windows; before
/// the first chunk, two rounds of the pool, so that each worker's
/// per-thread caches have seen the request mix.
constexpr int kWarmupRequests = 8;
constexpr int kFirstWarmupRequests = 64;
// Serve chunk per round: windows and seconds of closed loop, in
// serve_mixed and as the companion stage of the other workloads.
constexpr int kServeWindows = 4;
constexpr double kServeSaturateS = 1.6;
constexpr int kCompanionWindows = 3;
constexpr double kCompanionSaturateS = 0.8;
// Capacity: a closed loop saturates the workers; holds then offer a
// share of their throughput open-loop for kHoldSeconds and must meet
// the limit.
constexpr double kHoldSeconds = 3.0;
const double kHoldShares[] = {0.9, 0.8, 0.7, 0.6, 0.5};
constexpr double kGrowthTolerance = 0.1;    ///< backlog growth allowed, as a share of the rate

const tech::Technology& tek() {
    static const tech::Technology t = tech::Technology::ptm45_aggressive();
    return t;
}
const tech::BufferLibrary& buflib() {
    static const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tek());
    return lib;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int parallel_width() {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

// ---------------------------------------------------------------------------
// Operation accounting and the result line.

struct Outcome {
    long attempted{0};
    long failed{0};

    void op() { ++attempted; }
    /// Count one failed check; the message goes to stderr.
    void fail(const std::string& what) {
        ++failed;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    void expect(bool ok, const std::string& what) {
        if (!ok) fail(what);
    }
};

struct Metric {
    std::string name;
    std::string unit;
    double value{0.0};
};

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
                out.failed == 0 ? "true" : "false", std::max(out.attempted, 1L),
                out.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Set-up: library load from the warm cache, delay-row prefill, session.

struct Setup {
    std::unique_ptr<delaylib::FittedLibrary> lib;
    double load_s{0.0};
    double row_prefill_s{0.0};
    double session_s{0.0};
    double total_s() const { return load_s + row_prefill_s + session_s; }
};

std::vector<cts::SinkSpec> generate(const std::string& name, int sinks, double span,
                                    unsigned seed) {
    bench_io::BenchmarkSpec spec;
    spec.name = name;
    spec.sink_count = sinks;
    spec.die_span_um = span;
    spec.seed = seed;
    return bench_io::generate(spec);
}

Setup set_up(bool with_session, Trace& trace) {
    Setup s;
    auto t0 = Clock::now();
    {
        ScopedSpan sp(trace, "delaylib.load_or_characterize");
        s.lib = delaylib::FittedLibrary::load_or_characterize(kLibraryCache, tek(), buflib(), {});
    }
    s.load_s = seconds_between(t0, Clock::now());
    // The shared delay rows are built once per process on first use;
    // a 40-sink synthesis pays that outside every measured pass.
    t0 = Clock::now();
    {
        ScopedSpan sp(trace, "delaylib.row_prefill");
        (void)cts::synthesize(generate("warmup", 40, 10000.0, 1), *s.lib, cts::SynthesisOptions{});
    }
    s.row_prefill_s = seconds_between(t0, Clock::now());
    if (with_session) {
        t0 = Clock::now();
        {
            ScopedSpan sp(trace, "serve.session_start");
            serve::ServeSession::Config cfg;
            cfg.workers = kServeWorkers;
            cfg.model = s.lib.get();
            serve::ServeSession session(cfg);
        }
        cts::profile::enable(false);  // the session switches it on process-wide
        s.session_s = seconds_between(t0, Clock::now());
    }
    return s;
}

// ---------------------------------------------------------------------------
// Instances. Seed 1 reproduces the registry instances; seed N moves
// every generator seed by 1000 * (N - 1), keeping sizes and spans.

struct Instance {
    std::string name;
    std::vector<cts::SinkSpec> sinks;
};

unsigned moved(unsigned registry_seed, unsigned seed) {
    return registry_seed + 1000u * (seed - 1u);
}

Instance scal(const std::string& name, int n, double span, unsigned registry_seed,
              unsigned seed) {
    return {name, generate(name, n, span, moved(registry_seed, seed))};
}

std::vector<Instance> gsrc(unsigned seed) {
    std::vector<Instance> out;
    for (bench_io::BenchmarkSpec spec : bench_io::gsrc_suite()) {
        spec.seed = moved(spec.seed, seed);
        out.push_back({spec.name, bench_io::generate(spec)});
    }
    return out;
}

// ---------------------------------------------------------------------------
// Synthesis passes.

struct SynthOut {
    double wall_s{0.0};
    cts::profile::Snapshot prof;
    std::uint64_t cache_hits{0};
    std::uint64_t cache_misses{0};
    double wirelength_um{0.0};
    int buffers{0};
    double model_skew_ps{0.0};
    int live_nodes{0};
    int levels{0};
    int refine_passes{0};
    int refine_moves{0};
    double reclaimed_um{0.0};

    bool same_tree(const SynthOut& o) const {
        return wirelength_um == o.wirelength_um && buffers == o.buffers &&
               model_skew_ps == o.model_skew_ps && live_nodes == o.live_nodes;
    }
};

struct Pass {
    double wall_s{0.0};
    bool traced{false};
    std::vector<SynthOut> per;
};

cts::SynthesisOptions shipped(int threads) {
    cts::SynthesisOptions o;
    o.num_threads = threads;
    return o;
}

/// One cts::synthesize call. A traced call runs with the library's
/// phase profile on and is recorded as a span; `keep` receives the
/// result when non-null.
SynthOut synth_one(const Instance& inst, const delaylib::DelayModel& lib,
                   const cts::SynthesisOptions& opt, bool traced, Trace& trace, int parent,
                   Outcome& out, cts::SynthesisResult* keep) {
    SynthOut r;
    delaylib::EvalCache& ec = cts::eval_cache_for(lib, opt);
    const delaylib::EvalCache::Stats before = ec.stats();
    cts::profile::enable(traced);
    cts::profile::reset();
    out.op();
    const int span = traced ? trace.begin("cts.synthesize", parent,
                                          "\"instance\":\"" + inst.name + "\",\"threads\":" +
                                              std::to_string(opt.num_threads))
                            : -1;
    const auto t0 = Clock::now();
    cts::SynthesisResult res = cts::synthesize(inst.sinks, lib, opt);
    r.wall_s = seconds_between(t0, Clock::now());
    trace.end(span);
    r.prof = cts::profile::snapshot();
    cts::profile::enable(false);
    const delaylib::EvalCache::Stats after = ec.stats();
    r.cache_hits = after.hits - before.hits;
    r.cache_misses = after.misses - before.misses;
    r.wirelength_um = res.wire_length_um;
    r.buffers = res.buffer_count;
    r.model_skew_ps = res.root_timing.max_ps - res.root_timing.min_ps;
    r.live_nodes = static_cast<int>(res.tree.subtree(res.root).size());
    r.levels = res.levels;
    r.refine_passes = res.refine.passes;
    r.refine_moves = res.refine.trims + res.refine.buffer_swaps + res.refine.snake_stages;
    r.reclaimed_um = res.reclaim.reclaimed_um;
    out.expect(!res.diagnostics.deadline_hit && res.root >= 0,
               inst.name + ": synthesis degraded or produced no root");
    if (traced) {
        trace.counter("cts.maze.calls", static_cast<double>(r.prof.maze_calls));
        trace.counter("util.executor.tasks", static_cast<double>(r.prof.dag_tasks));
        trace.counter("cts.wire_reclaim.reclaimed_um", r.reclaimed_um);
    }
    if (keep) *keep = std::move(res);
    return r;
}

Pass synth_pass(const std::vector<Instance>& set, const delaylib::DelayModel& lib,
                int threads, bool traced, Trace& trace, Outcome& out,
                std::vector<cts::SynthesisResult>* keep) {
    Pass p;
    p.traced = traced;
    if (keep) keep->resize(set.size());
    const int span = traced ? trace.begin("bench.synth_pass") : -1;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < set.size(); ++i)
        p.per.push_back(synth_one(set[i], lib, shipped(threads), traced, trace, span, out,
                                  keep ? &(*keep)[i] : nullptr));
    p.wall_s = seconds_between(t0, Clock::now());
    trace.end(span);
    return p;
}

/// Every pass must rebuild exactly the first pass's trees.
void expect_repeatable(const std::vector<Pass>& passes, const std::vector<Instance>& set,
                       Outcome& out) {
    for (std::size_t k = 1; k < passes.size(); ++k)
        for (std::size_t i = 0; i < set.size(); ++i)
            out.expect(passes[k].per[i].same_tree(passes[0].per[i]),
                       set[i].name + ": pass " + std::to_string(k) +
                           " built a different tree than pass 0");
}

/// Replay of the topology layer's level-0 matching, built exactly as
/// synthesize() builds it: sink i is tree node i, latency 0, and the
/// generator is seeded with the options' rng_seed.
double level0_pairs_s(const Instance& inst, Trace& trace, int parent) {
    const cts::SynthesisOptions opt = shipped(1);
    std::vector<cts::LevelNode> level;
    level.reserve(inst.sinks.size());
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        level.push_back({static_cast<int>(i), inst.sinks[i].pos, 0.0});
    std::mt19937 rng(opt.rng_seed);
    ScopedSpan sp(trace, "cts.select_pairs", parent, "\"instance\":\"" + inst.name + "\"");
    const auto t0 = Clock::now();
    (void)cts::select_pairs(level, opt, rng);
    return seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Paper-protocol signoff: netlist() + transient simulation at dt 1 ps.

struct SignoffOut {
    double verify_s{0.0};
    double netlist_s{0.0};
    double sim_s{0.0};
    long stages{0};
    std::vector<double> skew_ps, worst_slew_ps, latency_ps, model_skew_ps;
};

/// Sign off trees [first, first + count) of `set` and add them to `s`,
/// which keeps them in instance order. A run signs off its set in such
/// units, one per round.
void signoff(const std::vector<Instance>& set, const std::vector<cts::SynthesisResult>& trees,
             std::size_t first, std::size_t count, SignoffOut& s, Trace& trace, Outcome& out) {
    sim::NetlistSimOptions so;
    so.solver.dt_ps = 1.0;
    const double slew_limit = shipped(1).slew_limit_ps;
    const int pass_span = trace.begin("bench.verify_unit");
    double netlist_s = 0.0, sim_s = 0.0;
    for (std::size_t i = first; i < first + count; ++i) {
        const cts::SynthesisResult& res = trees[i];
        const std::string args = "\"instance\":\"" + set[i].name + "\"";
        out.op();
        auto t0 = Clock::now();
        circuit::Netlist net;
        {
            ScopedSpan sp(trace, "circuit.netlist", pass_span, args);
            net = res.netlist(tek(), buflib());
        }
        auto t1 = Clock::now();
        sim::NetlistSimReport rep;
        {
            ScopedSpan sp(trace, "sim.simulate_netlist", pass_span, args);
            rep = sim::simulate_netlist(net, tek(), buflib(), so);
        }
        auto t2 = Clock::now();
        netlist_s += seconds_between(t0, t1);
        sim_s += seconds_between(t1, t2);
        {
            // Stage count for the per-stage cost; outside verify_s.
            ScopedSpan sp(trace, "circuit.decompose", -1, args);
            s.stages += static_cast<long>(circuit::decompose(net, tek(), buflib(), so.decompose).size());
        }
        s.skew_ps.push_back(rep.skew_ps);
        s.worst_slew_ps.push_back(rep.worst_slew_ps);
        s.latency_ps.push_back(rep.max_latency_ps);
        s.model_skew_ps.push_back(res.root_timing.max_ps - res.root_timing.min_ps);
        out.expect(rep.complete, set[i].name + ": simulation incomplete");
        out.expect(rep.worst_slew_ps <= slew_limit,
                   set[i].name + ": simulated worst slew " + std::to_string(rep.worst_slew_ps) +
                       " ps over the " + std::to_string(slew_limit) + " ps limit");
        trace.counter("sim.skew_ps", rep.skew_ps);
    }
    trace.end(pass_span);
    s.netlist_s += netlist_s;
    s.sim_s += sim_s;
    s.verify_s += netlist_s + sim_s;
}

double mean(const std::vector<double>& v) {
    double a = 0.0;
    for (double x : v) a += x;
    return v.empty() ? 0.0 : a / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Serving: an in-process ServeSession fed open-loop by this thread.

struct PoolEntry {
    bool scenario{false};
    std::string body;  ///< request JSON after the id member
    std::vector<double> expect;  ///< standalone result, compared exactly
};

/// Distinct requests, after bench_serve_json: synthesize requests of
/// 80-240 sinks over 8-20 mm, every third with skew refinement off
/// and every third with wire reclamation off, plus schema-v2
/// Monte-Carlo scenarios of 200 sinks and 32 samples. The designs are
/// the same for every seed: with only 32 of them, drawing them anew
/// moved the slowest scenario, and with it the p99, by up to 30%
/// between seeds. The seed draws each scenario's sampling seed and the
/// order requests arrive in (Deck).
std::vector<PoolEntry> request_pool(unsigned seed) {
    std::mt19937 rng(7919u + 17u);
    const int sizes[] = {80, 120, 180, 240};
    const int spans[] = {8000, 12000, 16000, 20000};
    std::vector<PoolEntry> pool;
    for (int k = 0; k < 24; ++k) {
        PoolEntry e;
        e.body = "\"synthetic\":{\"sinks\":" + std::to_string(sizes[k % 4]) +
                 ",\"span_um\":" + std::to_string(spans[(k / 4) % 4]) +
                 ",\"seed\":" + std::to_string(rng() % 100000u + 1u) + "}";
        if (k % 3 == 1) e.body += ",\"options\":{\"skew_refine\":false}";
        if (k % 3 == 2) e.body += ",\"options\":{\"wire_reclaim\":false}";
        pool.push_back(std::move(e));
    }
    for (int k = 0; k < 8; ++k) {
        PoolEntry e;
        e.scenario = true;
        e.body = "\"type\":\"scenario\",\"schema_version\":2,\"synthetic\":{\"sinks\":200,"
                 "\"span_um\":16000,\"seed\":" +
                 std::to_string(rng() % 100000u + 1u) +
                 "},\"scenario\":{\"mode\":\"monte_carlo\",\"samples\":32,\"seed\":" +
                 std::to_string(rng() % 1000u + 1u + 1000u * (seed - 1u)) + "}";
        pool.push_back(std::move(e));
    }
    return pool;
}

std::string request_line(const PoolEntry& e, long id) {
    return "{\"id\":" + std::to_string(id) + "," + e.body + "}";
}

std::vector<double> synth_key(const cts::SynthesisResult& r) {
    return {r.root_timing.max_ps - r.root_timing.min_ps, r.root_timing.max_ps,
            r.wire_length_um, static_cast<double>(r.tree.size()),
            static_cast<double>(r.buffer_count), static_cast<double>(r.levels)};
}

std::vector<double> scenario_key(const cts::ScenarioResult& r) {
    std::vector<double> k{r.nominal_skew_ps, r.nominal_latency_ps, r.nominal_wirelength_um,
                          static_cast<double>(r.buffers), static_cast<double>(r.levels),
                          r.yield_at_target};
    for (const cts::ScenarioSample& s : r.samples) {
        k.push_back(s.skew_ps);
        k.push_back(s.latency_ps);
    }
    return k;
}

double num(const serve::Json& j, const char* key) {
    const serve::Json* v = j.find(key);
    return v && v->is_number() ? v->as_number() : std::nan("");
}

std::vector<double> response_key(const serve::Json& r) {
    if (const serve::Json* res = r.find("result"))
        return {num(*res, "skew_ps"), num(*res, "latency_ps"), num(*res, "wirelength_um"),
                num(*res, "nodes"), num(*res, "buffers"), num(*res, "levels")};
    const serve::Json* sc = r.find("scenario");
    if (!sc) return {};
    const serve::Json* nom = sc->find("nominal");
    if (!nom) return {};
    std::vector<double> k{num(*nom, "skew_ps"), num(*nom, "latency_ps"),
                          num(*nom, "wirelength_um"), num(*nom, "buffers"),
                          num(*nom, "levels"), num(*sc, "yield_at_target")};
    if (const serve::Json* samples = sc->find("samples"))
        for (const serve::Json& s : samples->items()) {
            k.push_back(num(s, "skew_ps"));
            k.push_back(num(s, "latency_ps"));
        }
    return k;
}

/// Standalone reference of every pool entry: cts::synthesize or
/// cts::run_scenario of the parsed request, serial. Fills `expect`
/// and, when `keep` is set, the first 8 synthesized trees. The pass's
/// records cover its synthesize entries only.
Pass reference_pass(std::vector<PoolEntry>& pool, const delaylib::DelayModel& lib,
                       bool traced, Trace& trace, Outcome& out,
                       std::vector<Instance>* keep_inst,
                       std::vector<cts::SynthesisResult>* keep) {
    Pass rp;
    rp.traced = traced;
    const int span = traced ? trace.begin("bench.reference_pass") : -1;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < pool.size(); ++i) {
        PoolEntry& e = pool[i];
        const serve::Request req = serve::parse_request(request_line(e, 0));
        Instance inst{"pool" + std::to_string(i), serve::resolve_sinks(req)};
        // A request may switch a quality pass off: run it with exactly
        // the request's options.
        cts::SynthesisOptions opt = req.options;
        opt.num_threads = 1;
        std::vector<double> key;
        if (e.scenario) {
            cts::ScenarioSpec spec = req.scenario;
            spec.num_threads = 1;
            out.op();
            const int sc = traced ? trace.begin("cts.run_scenario", span,
                                                "\"instance\":\"" + inst.name + "\"")
                                  : -1;
            key = scenario_key(cts::run_scenario(inst.sinks, lib, opt, spec));
            trace.end(sc);
        } else {
            cts::SynthesisResult res;
            rp.per.push_back(synth_one(inst, lib, opt, traced, trace, span, out, &res));
            key = synth_key(res);
            if (keep && keep->size() < 8) {
                keep_inst->push_back(std::move(inst));
                keep->push_back(std::move(res));
            }
        }
        out.expect(e.expect.empty() || e.expect == key, "pool" + std::to_string(i) +
                                                            ": result not repeatable");
        e.expect = key;
    }
    rp.wall_s = seconds_between(t0, Clock::now());
    trace.end(span);
    return rp;
}

/// What a request was sent for. Only windows enter the latency metrics.
enum class Part { warmup, window, saturation, hold };

struct RequestRecord {
    int pool{0};
    bool scenario{false};
    Part part{Part::warmup};
    double rate{0.0};  ///< offered req/s; 0 in a closed loop
    int backlog{0};  ///< requests sent before this one and not yet answered
    Clock::time_point due{}, sent{}, done{};
    std::string response;
};

/// Requests sent back to back: records [first, first + count) of
/// ServeRun::reqs.
struct Step {
    double rate{0.0};  ///< offered req/s; 0 for the closed-loop saturation
    std::size_t first{0}, count{0};
    double p50_ms{0.0}, p99_ms{0.0};
    double service_ms{0.0};  ///< mean service time (latency - queue)
    /// Responses between the step's first and last send, and that span.
    double answered{0.0}, span_s{0.0};
    /// Least-squares slope of the backlog over the step's last 2/3, in
    /// requests per second: about 0 while the server keeps up, and the
    /// rate minus the capacity when it does not.
    double growth_rps{0.0};
    /// <= 1 while the step meets the limit: p99 within the SLO and a
    /// backlog growing by less than kGrowthTolerance of the rate.
    double score() const {
        return std::max(p99_ms / kSloMs, growth_rps / (kGrowthTolerance * rate));
    }
};

struct ServeRun {
    std::deque<RequestRecord> reqs;  ///< every request, in send order
    std::vector<Step> windows;      ///< reference-rate windows, from every chunk
    std::vector<Step> saturations;  ///< closed loops that never let a worker idle
    std::vector<Step> holds;        ///< shares of the capacity, until one meets the limit
    double p50_ms{0.0}, p99_ms{0.0}, capacity_rps{0.0}, max_rps{0.0};
    std::vector<double> lag_ms;
    std::vector<double> parse_us;
    long next_id{1};
    serve::StatsSnapshot stats;
};

/// The order requests take from the pool: decks of all 32 entries,
/// the 24 synthesize entries and the 8 scenarios each shuffled from
/// the seed, a scenario at every fourth place. Every window starts a
/// fresh deck, so every window carries the same mix in its own order,
/// and the median over windows averages over many orders rather than
/// resting on one.
class Deck {
public:
    Deck(const std::vector<PoolEntry>& pool, unsigned seed) : rng_(seed * 104729u + 3u) {
        for (std::size_t k = 0; k < pool.size(); ++k)
            (pool[k].scenario ? scen_ : synth_).push_back(static_cast<int>(k));
        fresh();
    }

    void fresh() {
        std::shuffle(synth_.begin(), synth_.end(), rng_);
        std::shuffle(scen_.begin(), scen_.end(), rng_);
        order_.clear();
        for (std::size_t i = 0, s = 0, y = 0; i < synth_.size() + scen_.size(); ++i)
            order_.push_back(i % 4 == 3 ? scen_[s++] : synth_[y++]);
        next_ = 0;
    }

    int next() {
        if (next_ == order_.size()) fresh();
        return order_[next_++];
    }

private:
    std::mt19937 rng_;
    std::vector<int> synth_, scen_, order_;
    std::size_t next_{0};
};

/// Sends requests into one session from the calling thread, starting
/// from an empty queue. Steps follow each other with no pause, so the
/// queue one step leaves is where the next one starts.
class Stream {
public:
    Stream(serve::ServeSession& session, const std::vector<PoolEntry>& pool, Deck& deck,
           ServeRun& run)
        : session_(session), pool_(pool), deck_(deck), run_(run),
          next_due_(Clock::now() + std::chrono::milliseconds(5)) {}

    /// Offer `n` requests open-loop at `rate` req/s, the first one
    /// period after the previous step's last. Each request is timed
    /// from its due time, so a stall delays every request behind it.
    Step offer(Part part, double rate, int n) {
        Step st;
        st.rate = rate;
        st.first = run_.reqs.size();
        st.count = static_cast<std::size_t>(n);
        if (part == Part::window) deck_.fresh();
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate));
        const Clock::time_point t0 = sent_ ? next_due_ - last_period_ + period : next_due_;
        for (int i = 0; i < n; ++i) {
            const Clock::time_point due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(i / rate));
            RequestRecord& r = send(part, rate, due);
            run_.lag_ms.push_back(1e3 * seconds_between(r.due, r.sent));
            next_due_ = r.due + period;
        }
        last_period_ = period;
        return st;
    }

    /// Keep kServeWorkers + 2 requests outstanding for `seconds`, each
    /// sent as soon as one is answered, so no worker ever idles: a
    /// closed loop that measures throughput. Its requests are due when
    /// sent.
    Step saturate(double seconds) {
        Step st;
        st.first = run_.reqs.size();
        const Clock::time_point end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        while (Clock::now() < end) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                answered_.wait(lock, [this] { return sent_ - completed_ < kServeWorkers + 2; });
            }
            send(Part::saturation, 0.0, Clock::now());
        }
        st.count = run_.reqs.size() - st.first;
        return st;
    }

private:
    /// Send the deck's next request at `due`.
    RequestRecord& send(Part part, double rate, Clock::time_point due) {
        const long id = run_.next_id++;
        const std::size_t k = static_cast<std::size_t>(deck_.next());
        const std::string line = request_line(pool_[k], id);
        const auto a = Clock::now();
        (void)serve::parse_request(line);
        run_.parse_us.push_back(1e6 * seconds_between(a, Clock::now()));

        // deque::emplace_back keeps references to earlier records.
        RequestRecord& r = run_.reqs.emplace_back();
        r.pool = static_cast<int>(k);
        r.scenario = pool_[k].scenario;
        r.part = part;
        r.rate = rate;
        r.due = due;
        std::this_thread::sleep_until(r.due);
        r.sent = Clock::now();
        {
            std::lock_guard<std::mutex> lock(mu_);
            r.backlog = sent_++ - completed_;
        }
        session_.handle_line(line, [this, &r](const std::string& l) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                r.done = Clock::now();
                r.response = l;
                ++completed_;
            }
            answered_.notify_one();
        });
        return r;
    }

    serve::ServeSession& session_;
    const std::vector<PoolEntry>& pool_;
    Deck& deck_;
    ServeRun& run_;
    std::mutex mu_;
    std::condition_variable answered_;
    int sent_{0}, completed_{0};
    Clock::time_point next_due_;
    Clock::duration last_period_{};
};

/// A step's figures, once every response is back.
void measure(Step& st, const std::deque<RequestRecord>& reqs) {
    if (st.count == 0) return;
    std::vector<double> lat;
    double service = 0.0;
    for (std::size_t i = st.first; i < st.first + st.count; ++i) {
        const RequestRecord& r = reqs[i];
        lat.push_back(1e3 * seconds_between(r.due, r.done));
        try {
            const serve::Json j = serve::Json::parse(r.response);
            service += num(j, "latency_ms") - num(j, "queue_ms");
        } catch (const std::exception&) {  // check_serve reports it
        }
    }
    st.p50_ms = percentile(lat, 0.50);
    st.p99_ms = percentile(lat, 0.99);
    st.service_ms = service / static_cast<double>(std::max<std::size_t>(st.count, 1));

    const RequestRecord &head = reqs[st.first], &tail = reqs[st.first + st.count - 1];
    int answered = 0;  // the queue was empty at the first send
    for (std::size_t i = st.first; i < st.first + st.count; ++i)
        answered += reqs[i].done <= tail.sent;
    st.answered = answered;
    st.span_s = seconds_between(head.sent, tail.sent);

    double n = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = st.first + st.count / 3; i < st.first + st.count; ++i) {
        const double x = seconds_between(head.due, reqs[i].due);
        const double y = reqs[i].backlog;
        n += 1.0;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double den = n * sxx - sx * sx;
    st.growth_rps = n >= 2.0 && den > 0.0 ? (n * sxy - sx * sy) / den : 0.0;
}

/// One ServeSession with kServeWorkers workers for the whole run, fed
/// from the calling thread in chunks that the run spreads over its
/// length, between its other stages. The shared host's speed drifts by
/// 10-30% over seconds to tens of seconds, so a serving figure taken in
/// one contiguous stretch reads whatever the host did then; taken in
/// chunks across the run it reads the run's average.
///
/// The reference latency is the median over windows of each window's
/// percentile, so a short stall of the machine moves one sample, not
/// the figure.
///
/// serve_max_rps_at_slo is the highest fixed rate at which p99 stays
/// within the SLO and the backlog does not grow. A rate above what the
/// workers complete makes the backlog grow at the difference, so the
/// backlog test holds below the throughput of saturated workers and
/// nowhere above it. That throughput, serve.capacity_rps, is measured
/// by closed loops that keep every worker busy, one per chunk. Holds
/// then offer kHoldShares of it open-loop, largest first, each from an
/// empty queue for kHoldSeconds, until one meets the limit.
class Server {
public:
    Server(const std::vector<PoolEntry>& pool, const delaylib::DelayModel& lib, unsigned seed)
        : pool_(pool), deck_(pool, seed), session_(config(lib)) {
        cts::profile::enable(false);  // the session switched it on process-wide
    }

    /// A warm-up, checked and not timed, then `windows` back-to-back
    /// reference-rate windows, then `saturate_s` of closed loop. The
    /// first requests after a serial stretch can run several times
    /// slower on the shared host, and the first of a run slower still;
    /// the warm-up drains before the windows start.
    void chunk(int windows, double saturate_s) {
        serving([&] {
            {
                Stream warm(session_, pool_, deck_, run_);
                warm.offer(Part::warmup, kReferenceRate,
                           run_.reqs.empty() ? kFirstWarmupRequests : kWarmupRequests);
                session_.drain();
            }
            {
                Stream ref(session_, pool_, deck_, run_);
                for (int w = 0; w < windows; ++w)
                    run_.windows.push_back(ref.offer(Part::window, kReferenceRate, kWindowRequests));
                session_.drain();
            }
            Stream sat(session_, pool_, deck_, run_);
            run_.saturations.push_back(sat.saturate(saturate_s));
            session_.drain();
        });
    }

    /// The holds, after the last chunk; then every figure.
    const ServeRun& finish() {
        double answered = 0.0, span = 0.0;
        for (Step& st : run_.saturations) {
            measure(st, run_.reqs);
            answered += st.answered;
            span += st.span_s;
        }
        run_.capacity_rps = span > 0.0 ? answered / span : 0.0;
        serving([&] {
            for (double share : kHoldShares) {
                const double rate = share * run_.capacity_rps;
                if (rate * kHoldSeconds < 2.0) break;  // nothing was answered
                {
                    Stream hold(session_, pool_, deck_, run_);
                    run_.holds.push_back(hold.offer(
                        Part::hold, rate, static_cast<int>(std::lround(rate * kHoldSeconds))));
                    session_.drain();
                }
                measure(run_.holds.back(), run_.reqs);
                if (run_.holds.back().score() <= 1.0) break;
            }
        });
        run_.stats = session_.stats();
        std::vector<double> p50, p99;
        for (Step& w : run_.windows) {
            measure(w, run_.reqs);
            p50.push_back(w.p50_ms);
            p99.push_back(w.p99_ms);
        }
        run_.p50_ms = median(p50);
        run_.p99_ms = median(p99);
        run_.max_rps = max_rps_at_slo(run_.holds);
        return run_;
    }

private:
    static serve::ServeSession::Config config(const delaylib::DelayModel& lib) {
        serve::ServeSession::Config cfg;
        cfg.workers = kServeWorkers;
        cfg.queue_capacity = 1 << 20;  // open loop: overload shows as latency, never refusal
        cfg.model = &lib;
        return cfg;
    }

    /// Serving runs as the daemon runs it, with the phase profile on;
    /// the run's synthesis passes set it themselves.
    template <class F>
    void serving(F f) {
        cts::profile::enable(true);
        f();
        cts::profile::enable(false);
        malloc_trim(0);
    }

    /// The first hold that meets the limit gives the figure. When a
    /// larger share missed it first, the rate where the score crosses 1
    /// is interpolated between the two, so the figure moves smoothly
    /// rather than in steps of a share. When no share holds, the
    /// smallest, scaled by how far it missed.
    static double max_rps_at_slo(const std::vector<Step>& holds) {
        if (holds.empty()) return 0.0;
        const Step& last = holds.back();
        if (last.score() > 1.0) return last.rate / last.score();
        if (holds.size() == 1) return last.rate;
        const Step& missed = holds[holds.size() - 2];
        const double t = (1.0 - last.score()) / (missed.score() - last.score());
        return last.rate + t * (missed.rate - last.rate);
    }

    const std::vector<PoolEntry>& pool_;
    Deck deck_;
    ServeRun run_;
    serve::ServeSession session_;
};

/// Check every response against the standalone reference and record
/// the per-request spans of a traced run.
struct ServeSplit {
    std::vector<double> queue_ms[2], service_ms[2];
    double scenario_samples{0.0}, scenario_service_s{0.0};
};

ServeSplit check_serve(const ServeRun& run, const std::vector<PoolEntry>& pool, Trace& trace,
                       Outcome& out) {
    ServeSplit sp;
    std::vector<Clock::time_point> lane_free;
    for (const RequestRecord& r : run.reqs) {
        out.op();
        serve::Json j;
        try {
            j = serve::Json::parse(r.response);
        } catch (const std::exception&) {
            out.fail("unparseable response: " + r.response);
            continue;
        }
        const serve::Json* ok = j.find("ok");
        if (!ok || !ok->as_bool()) {
            out.fail("request failed: " + r.response);
            continue;
        }
        if (response_key(j) != pool[static_cast<std::size_t>(r.pool)].expect) {
            out.fail("response differs from standalone run: " + r.response.substr(0, 200));
            continue;
        }
        const double queue = num(j, "queue_ms"), latency = num(j, "latency_ms");
        const double service = latency - queue;
        const int kind = r.scenario ? 1 : 0;
        if (r.part == Part::window) {
            sp.queue_ms[kind].push_back(queue);
            sp.service_ms[kind].push_back(service);
        }
        if (r.scenario) {
            sp.scenario_samples += 32.0;
            sp.scenario_service_s += service / 1e3;
        }
        if (!trace.on()) continue;
        std::size_t lane = 0;
        while (lane < lane_free.size() && lane_free[lane] > r.due) ++lane;
        if (lane == lane_free.size()) lane_free.push_back(r.done);
        lane_free[lane] = r.done;
        const auto ms = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(v));
        };
        const Clock::time_point enq = r.done - ms(latency);
        const std::string args = "\"id\":" + std::to_string(num(j, "id")) + ",\"type\":\"" +
                                 (r.scenario ? "scenario" : "synthesize") +
                                 "\",\"rate\":" + std::to_string(r.rate);
        const int lane_id = 1 + static_cast<int>(lane);
        const int id = trace.add("serve.request", r.due, r.done, -1, lane_id, args);
        trace.add("bench.generator_wait", r.due, r.sent, id, lane_id, args);
        trace.add("serve.queue", enq, enq + ms(queue), id, lane_id, args);
        trace.add(r.scenario ? "cts.scenario_service" : "cts.synthesize_service",
                  enq + ms(queue), r.done, id, lane_id, args);
    }
    return sp;
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run.

/// Every per-layer metric, in report order (see layer_skeleton).
struct Layers {
    std::vector<Metric> m;
    Metric& at(const std::string& name) {
        for (Metric& x : m)
            if (x.name == name) return x;
        throw std::logic_error("unknown per-layer metric " + name);
    }
    double get(const std::string& name) { return at(name).value; }
    void set(const std::string& name, double v) { at(name).value = v; }
};

/// Names and units of every per-layer metric but the set-up ones
/// run.py adds, in report order; a layer a workload does not exercise
/// reads 0.
Layers layer_skeleton() {
    Layers L;
    const char* const s = "s";
    const char* const c = "count";
    const std::pair<const char*, const char*> names[] = {
        {"delaylib.eval_cache_hit_ratio", "ratio"},
        {"cts.topology.level0_pairs_s", s}, {"cts.maze.self_s", s}, {"cts.maze.calls", c},
        {"cts.maze.c2f_coarse", c}, {"cts.maze.c2f_fallbacks", c}, {"cts.balance.self_s", s},
        {"cts.timing.self_s", s}, {"cts.skew_refine.self_s", s},
        {"cts.skew_refine.passes", c}, {"cts.skew_refine.moves", c},
        {"cts.wire_reclaim.self_s", s}, {"cts.wire_reclaim.reclaimed_um", "um"},
        {"cts.unattributed_s", s}, {"cts.phase_coverage", "ratio"}, {"cts.levels", c},
        {"cts.tree_nodes", c}, {"cts.model_skew_ps", "ps"}, {"cts.model_sim_gap_ps", "ps"},
        {"util.executor.tasks", c}, {"util.executor.steals", c},
        {"util.executor.idle_s", s}, {"util.executor.speedup_vs_serial", "x"},
        {"circuit.netlist_s", s}, {"circuit.stages", c}, {"sim.self_s", s},
        {"sim.s_per_stage", s}, {"sim.skew_ps.r1", "ps"}, {"sim.skew_ps.r2", "ps"},
        {"sim.skew_ps.r3", "ps"}, {"sim.skew_ps.r4", "ps"}, {"sim.skew_ps.r5", "ps"},
        {"serve.parse_us", "us"}, {"serve.queue_ms.p50.synthesize", "ms"},
        {"serve.queue_ms.p50.scenario", "ms"}, {"serve.queue_ms.p99.synthesize", "ms"},
        {"serve.queue_ms.p99.scenario", "ms"}, {"serve.service_ms.p50.synthesize", "ms"},
        {"serve.service_ms.p50.scenario", "ms"}, {"serve.service_ms.p99.synthesize", "ms"},
        {"serve.service_ms.p99.scenario", "ms"}, {"serve.rejected", c},
        {"serve.degraded", c}, {"serve.malformed", c}, {"serve.capacity_rps", "req/s"},
        {"cts.scenario.samples_per_s", "1/s"},
        {"bench.generator_lag_ms.p99", "ms"}, {"bench.trace_overhead_pct", "%"},
        {"error_rate", "fraction"},
    };
    for (const auto& [n, u] : names) L.m.push_back({n, u, 0.0});
    return L;
}

/// Median over traced passes of each per-pass sum; `f` maps one
/// instance's record to its contribution.
template <class F>
double traced_median(const std::vector<Pass>& passes, F f) {
    std::vector<double> v;
    for (const Pass& p : passes) {
        if (!p.traced) continue;
        double a = 0.0;
        for (const SynthOut& s : p.per) a += f(s);
        v.push_back(a);
    }
    return median(v);
}

void synth_layers(Layers& L, const std::vector<Pass>& passes) {
    const auto phases = [](const SynthOut& s) {
        const cts::profile::Snapshot& p = s.prof;
        return p.maze_s + p.balance_s + p.timing_s + p.refine_s + p.reclaim_s + p.exec_idle_s +
               p.barrier_s;
    };
    const auto fld = [&](auto f) { return traced_median(passes, f); };
    const double wall = fld([](const SynthOut& s) { return s.wall_s; });
    const double covered = fld(phases);
    const double hits = fld([](const SynthOut& s) { return double(s.cache_hits); });
    const double misses = fld([](const SynthOut& s) { return double(s.cache_misses); });
    L.set("delaylib.eval_cache_hit_ratio", hits / std::max(hits + misses, 1.0));
    L.set("cts.maze.self_s", fld([](const SynthOut& s) { return s.prof.maze_s; }));
    L.set("cts.maze.calls", fld([](const SynthOut& s) { return double(s.prof.maze_calls); }));
    L.set("cts.maze.c2f_coarse",
          fld([](const SynthOut& s) { return double(s.prof.c2f_coarse_routes); }));
    L.set("cts.maze.c2f_fallbacks",
          fld([](const SynthOut& s) { return double(s.prof.c2f_fallbacks); }));
    L.set("cts.balance.self_s", fld([](const SynthOut& s) { return s.prof.balance_s; }));
    L.set("cts.timing.self_s", fld([](const SynthOut& s) { return s.prof.timing_s; }));
    L.set("cts.skew_refine.self_s", fld([](const SynthOut& s) { return s.prof.refine_s; }));
    L.set("cts.skew_refine.passes", fld([](const SynthOut& s) { return double(s.refine_passes); }));
    L.set("cts.skew_refine.moves", fld([](const SynthOut& s) { return double(s.refine_moves); }));
    L.set("cts.wire_reclaim.self_s", fld([](const SynthOut& s) { return s.prof.reclaim_s; }));
    L.set("cts.wire_reclaim.reclaimed_um", fld([](const SynthOut& s) { return s.reclaimed_um; }));
    L.set("cts.unattributed_s", wall - covered);
    L.set("cts.phase_coverage", covered / std::max(wall, 1e-12));
    L.set("cts.levels", fld([](const SynthOut& s) { return double(s.levels); }));
    L.set("cts.tree_nodes", fld([](const SynthOut& s) { return double(s.live_nodes); }));
    std::vector<double> skews;
    for (const Pass& p : passes)
        if (p.traced) {
            for (const SynthOut& s : p.per) skews.push_back(s.model_skew_ps);
            break;
        }
    L.set("cts.model_skew_ps", mean(skews));
}

/// Per-instance phase table of one traced pass (stdout, before the
/// result line).
void print_phase_table(const std::vector<Instance>& set, const Pass& p,
                       const std::vector<double>& level0_s) {
    std::printf("%-12s %8s %8s %8s %8s %8s %8s %8s %9s %12s\n", "instance", "wall_s",
                "topo0_s", "maze_s", "bal_s", "timing_s", "refine_s", "reclm_s", "exec_idle",
                "unattrib_s");
    for (std::size_t i = 0; i < set.size(); ++i) {
        const SynthOut& s = p.per[i];
        const cts::profile::Snapshot& q = s.prof;
        const double covered = q.maze_s + q.balance_s + q.timing_s + q.refine_s + q.reclaim_s +
                               q.exec_idle_s + q.barrier_s;
        std::printf("%-12s %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %9.4f %12.4f\n",
                    set[i].name.c_str(), s.wall_s, i < level0_s.size() ? level0_s[i] : 0.0,
                    q.maze_s, q.balance_s, q.timing_s, q.refine_s, q.reclaim_s, q.exec_idle_s,
                    s.wall_s - covered);
    }
}

void signoff_layers(Layers& L, const SignoffOut& so, const std::vector<Instance>& set,
                    bool gsrc_names) {
    L.set("circuit.stages", static_cast<double>(so.stages));
    std::vector<double> gap;
    for (std::size_t i = 0; i < so.skew_ps.size(); ++i)
        gap.push_back(so.skew_ps[i] - so.model_skew_ps[i]);
    L.set("cts.model_sim_gap_ps", mean(gap));
    if (gsrc_names)
        for (std::size_t i = 0; i < set.size(); ++i)
            L.set("sim.skew_ps." + set[i].name, so.skew_ps[i]);
}

void serve_layers(Layers& L, const ServeRun& run, const ServeSplit& sp) {
    L.set("serve.parse_us", median(run.parse_us));
    const char* kinds[] = {"synthesize", "scenario"};
    for (int k = 0; k < 2; ++k) {
        const std::string t = kinds[k];
        L.set("serve.queue_ms.p50." + t, percentile(sp.queue_ms[k], 0.50));
        L.set("serve.queue_ms.p99." + t, percentile(sp.queue_ms[k], 0.99));
        L.set("serve.service_ms.p50." + t, percentile(sp.service_ms[k], 0.50));
        L.set("serve.service_ms.p99." + t, percentile(sp.service_ms[k], 0.99));
    }
    L.set("serve.rejected", static_cast<double>(run.stats.rejected));
    L.set("serve.degraded", static_cast<double>(run.stats.degraded));
    L.set("serve.malformed", static_cast<double>(run.stats.malformed));
    L.set("serve.capacity_rps", run.capacity_rps);
    L.set("cts.scenario.samples_per_s",
          sp.scenario_samples / std::max(sp.scenario_service_s, 1e-12));
    L.set("bench.generator_lag_ms.p99", percentile(run.lag_ms, 0.99));
}

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
    std::string workload;
    std::string probe;
    unsigned seed{1};
    double seconds{10.0};
    bool trace{false};
    std::string trace_out;
};

struct Run {
    const Args& a;
    Trace trace;
    Outcome out;
    Setup setup;
    Layers layers = layer_skeleton();
    std::vector<PoolEntry> pool;
    std::unique_ptr<Server> server;
    double verify_passes{0.0};  ///< instances signed off / instances in the signoff set

    // End-to-end values.
    double synth_s{0.0}, verify_s{0.0}, wirelength_mm{0.0}, buffers{0.0};
    double sim_skew_ps{0.0}, sim_worst_slew_ps{0.0}, sim_latency_ps{0.0};
    double serve_p50_ms{0.0}, serve_p99_ms{0.0}, serve_max_rps{0.0};

    explicit Run(const Args& args) : a(args), trace(args.trace) {}

    /// Rounds until `seconds` are spent, at least `min_rounds`: each
    /// round runs `work(r)`, then one serve chunk of `windows` windows
    /// and `saturate_s` of closed loop. So every measurement is spread
    /// over the whole run, and the shared host's drift of 10-30% over
    /// seconds to tens of seconds averages out instead of landing on
    /// whichever figure was measured during a slow stretch. A round
    /// starts only if it is expected to end less than half a round
    /// after `seconds`.
    void rounds(int min_rounds, int windows, double saturate_s,
                const std::function<void(int)>& work) {
        const auto t0 = Clock::now();
        for (int r = 0;; ++r) {
            const double spent = seconds_between(t0, Clock::now());
            if (r >= min_rounds && spent + 0.5 * spent / r >= a.seconds) break;
            work(r);
            server->chunk(windows, saturate_s);
        }
    }

    /// `n` synthesis passes appended to `passes`; `keep` receives the
    /// trees of the run's first pass. A traced run alternates traced and
    /// untraced passes, so the tracing overhead is measured on the same
    /// instances.
    void synth_passes(std::vector<Pass>& passes, const std::vector<Instance>& set, int n,
                      std::vector<cts::SynthesisResult>* keep) {
        for (int i = 0; i < n; ++i) {
            const bool traced = a.trace && passes.size() % 2 == 0;
            passes.push_back(synth_pass(set, *setup.lib, 1, traced, trace, out,
                                        passes.empty() ? keep : nullptr));
        }
    }

    /// synth_s from untraced passes; the overhead from the split.
    void synth_end_to_end(const std::vector<Pass>& passes) {
        std::vector<double> plain, traced;
        for (const Pass& p : passes) (p.traced ? traced : plain).push_back(p.wall_s);
        synth_s = median(plain.empty() ? traced : plain);
        if (!traced.empty() && !plain.empty())
            layers.set("bench.trace_overhead_pct",
                       100.0 * (median(traced) / median(plain) - 1.0));
        wirelength_mm = 0.0;
        buffers = 0.0;
        for (const SynthOut& s : passes.front().per) {
            wirelength_mm += s.wirelength_um / 1000.0;
            buffers += s.buffers;
        }
    }

    void signoff_end_to_end(const SignoffOut& so) {
        verify_s = so.verify_s;
        sim_skew_ps = mean(so.skew_ps);
        sim_worst_slew_ps = *std::max_element(so.worst_slew_ps.begin(), so.worst_slew_ps.end());
        sim_latency_ps = mean(so.latency_ps);
    }

    /// Sign off `count` trees of `set` from `first`: one round's unit.
    void signoff_unit(const std::vector<Instance>& set,
                      const std::vector<cts::SynthesisResult>& trees, std::size_t first,
                      std::size_t count, SignoffOut& so) {
        signoff(set, trees, first, count, so, trace, out);
        verify_passes += static_cast<double>(count) / static_cast<double>(set.size());
    }

    void topology_replay(const std::vector<Instance>& set, const Pass* table_pass) {
        if (!a.trace) return;
        std::vector<std::vector<double>> reps(set.size());
        const int span = trace.begin("bench.topology_replay");
        for (int r = 0; r < 5; ++r)
            for (std::size_t i = 0; i < set.size(); ++i)
                reps[i].push_back(level0_pairs_s(set[i], trace, span));
        trace.end(span);
        std::vector<double> per;
        double total = 0.0;
        for (const auto& v : reps) {
            per.push_back(median(v));
            total += per.back();
        }
        layers.set("cts.topology.level0_pairs_s", total);
        if (table_pass) print_phase_table(set, *table_pass, per);
    }

    /// util.executor: passes of `inst` at min(nproc, 4) threads on the
    /// default DAG pipeline, whose trees must equal the serial tree (the
    /// first instance of the `serial` passes). An untraced run makes one
    /// pass, for the check; a traced run three, for the executor's own
    /// figures. Phase profile totals sum CPU time over workers, so the
    /// phase split comes from the serial passes.
    void parallel_passes(const Instance& inst, const std::vector<Pass>& serial) {
        const int width = parallel_width();
        std::vector<Pass> par;
        for (int i = 0; i < (a.trace ? 3 : 1); ++i)
            par.push_back(synth_pass({inst}, *setup.lib, width, a.trace, trace, out, nullptr));
        for (const Pass& p : par)
            out.expect(p.per[0].same_tree(serial.front().per[0]),
                       inst.name + ": " + std::to_string(width) +
                           "-thread tree differs from the serial tree");
        if (!a.trace) return;
        const auto fld = [&](auto f) { return traced_median(par, f); };
        layers.set("util.executor.tasks", fld([](const SynthOut& s) { return double(s.prof.dag_tasks); }));
        layers.set("util.executor.steals", fld([](const SynthOut& s) { return double(s.prof.dag_steals); }));
        layers.set("util.executor.idle_s", fld([](const SynthOut& s) { return s.prof.exec_idle_s; }));
        std::vector<double> sw, pw;
        for (const Pass& p : serial)
            if (p.traced) sw.push_back(p.per[0].wall_s);
        for (const Pass& p : par) pw.push_back(p.wall_s);
        layers.set("util.executor.speedup_vs_serial", median(sw) / median(pw));
    }

    /// The holds, then the serving figures and the response check.
    void serve_end_to_end() {
        const ServeRun& run = server->finish();
        const ServeSplit sp = check_serve(run, pool, trace, out);
        serve_p50_ms = run.p50_ms;
        serve_p99_ms = run.p99_ms;
        serve_max_rps = run.max_rps;
        const double lag = percentile(run.lag_ms, 0.99);
        out.expect(lag <= kMaxGeneratorLagMs,
                   "generator lag p99 " + std::to_string(lag) + " ms: run invalid");
        double window_service = 0.0;
        for (const Step& w : run.windows) window_service += w.service_ms / run.windows.size();
        std::fprintf(stderr,
                     "serve: ref p50 %.1f ms p99 %.1f ms (%zu windows, mean service %.1f ms), "
                     "lag p99 %.2f ms, capacity %.1f req/s over %zu loops, "
                     "max at SLO %.1f req/s\n",
                     serve_p50_ms, serve_p99_ms, run.windows.size(), window_service, lag,
                     run.capacity_rps, run.saturations.size(), serve_max_rps);
        std::fprintf(stderr, "  holds (rate p99_ms growth_rps):");
        for (const Step& st : run.holds)
            std::fprintf(stderr, "  %.1f %.0f %.1f", st.rate, st.p99_ms, st.growth_rps);
        std::fprintf(stderr, "\n");
        serve_layers(layers, run, sp);
    }

    void workload_synth_large() {
        const unsigned s = a.seed;
        const std::vector<Instance> set = {scal("scal_n3200", 3200, 40000.0, 11, s),
                                           scal("scal_span80", 400, 80000.0, 13, s),
                                           scal("scal_n800", 800, 40000.0, 11, s)};
        reference_pass(pool, *setup.lib, false, trace, out, nullptr, nullptr);
        std::vector<cts::SynthesisResult> trees;
        std::vector<Pass> passes;
        SignoffOut so;
        rounds(static_cast<int>(set.size()), kCompanionWindows, kCompanionSaturateS, [&](int r) {
            synth_passes(passes, set, 3, &trees);
            if (r < static_cast<int>(set.size())) signoff_unit(set, trees, r, 1, so);
        });
        parallel_passes(set.front(), passes);
        expect_repeatable(passes, set, out);
        synth_end_to_end(passes);
        synth_layers(layers, passes);
        topology_replay(set, &passes.front());
        signoff_end_to_end(so);
        signoff_layers(layers, so, set, false);
        serve_end_to_end();
    }

    void workload_signoff_gsrc() {
        const std::vector<Instance> set = gsrc(a.seed);
        reference_pass(pool, *setup.lib, false, trace, out, nullptr, nullptr);
        std::vector<cts::SynthesisResult> trees;
        std::vector<Pass> passes;
        SignoffOut so;
        rounds(static_cast<int>(set.size()), kCompanionWindows, kCompanionSaturateS, [&](int r) {
            synth_passes(passes, set, 3, &trees);
            if (r < static_cast<int>(set.size())) signoff_unit(set, trees, r, 1, so);
        });
        expect_repeatable(passes, set, out);
        synth_end_to_end(passes);
        synth_layers(layers, passes);
        topology_replay(set, &passes.front());
        signoff_end_to_end(so);
        signoff_layers(layers, so, set, true);
        serve_end_to_end();
    }

    void workload_serve_mixed() {
        std::vector<Instance> kept;
        std::vector<cts::SynthesisResult> trees;
        std::vector<Pass> passes;
        SignoffOut so;
        rounds(2, kServeWindows, kServeSaturateS, [&](int r) {
            for (int i = 0; i < 2; ++i) {
                const bool traced = a.trace && passes.size() % 2 == 0;
                const bool first = passes.empty();
                passes.push_back(reference_pass(pool, *setup.lib, traced, trace, out,
                                                first ? &kept : nullptr,
                                                first ? &trees : nullptr));
            }
            if (r < 2) signoff_unit(kept, trees, 4 * static_cast<std::size_t>(r), 4, so);
        });
        synth_end_to_end(passes);
        synth_layers(layers, passes);
        signoff_end_to_end(so);
        signoff_layers(layers, so, kept, false);
        serve_end_to_end();
    }

    int go() {
        setup = set_up(a.workload == "serve_mixed", trace);
        pool = request_pool(a.seed);
        server = std::make_unique<Server>(pool, *setup.lib, a.seed);
        if (a.workload == "synth_large") workload_synth_large();
        else if (a.workload == "signoff_gsrc") workload_signoff_gsrc();
        else workload_serve_mixed();
        server.reset();

        std::vector<Metric> metrics;
        // Set-up times (setup_s, delaylib.load_s, .row_prefill_s and
        // .characterize_s) are left to run.py, which takes them from
        // fresh-process probes: this process's own set-up ran once.
        if (a.trace) {
            layers.set("error_rate",
                       static_cast<double>(out.failed) / std::max(out.attempted, 1L));
            // Span-measured layers: self time per verify pass.
            const std::map<std::string, double> self = trace.self_seconds();
            const auto self_s = [&](const char* n) {
                const auto it = self.find(n);
                return it == self.end() ? 0.0 : it->second;
            };
            const double passes = std::max(verify_passes, 1e-12);
            const double stages = std::max(layers.get("circuit.stages"), 1.0);
            layers.set("circuit.netlist_s", self_s("circuit.netlist") / passes);
            layers.set("sim.self_s", self_s("sim.simulate_netlist") / passes);
            layers.set("sim.s_per_stage", self_s("sim.simulate_netlist") / passes / stages);
            for (const auto& [name, v] : self) std::printf("self %-32s %10.4f s\n", name.c_str(), v);
            metrics = layers.m;
            if (!a.trace_out.empty() && !trace.write(a.trace_out))
                out.fail("cannot write trace " + a.trace_out);
            std::fprintf(stderr, "trace: %zu spans -> %s\n", trace.span_count(),
                         a.trace_out.c_str());
        } else {
            metrics = {{"synth_s", "s", synth_s},
                       {"verify_s", "s", verify_s},
                       {"wirelength_mm", "mm", wirelength_mm},
                       {"buffers", "count", buffers},
                       {"sim_skew_ps", "ps", sim_skew_ps},
                       {"sim_worst_slew_ps", "ps", sim_worst_slew_ps},
                       {"sim_latency_ps", "ps", sim_latency_ps},
                       {"serve_p50_ms", "ms", serve_p50_ms},
                       {"serve_p99_ms", "ms", serve_p99_ms},
                       {"serve_max_rps_at_slo", "req/s", serve_max_rps},
                       {"peak_rss_mb", "MB", peak_rss_mb()}};
        }
        print_result(out, metrics);
        return out.failed == 0 ? 0 : 1;
    }
};

/// One fresh-process set-up, printed as JSON for run.py's median.
int probe_setup(const Args& a) {
    Trace off(false);
    const Setup s = set_up(a.workload == "serve_mixed", off);
    std::printf("{\"setup_s\": %.17g, \"load_s\": %.17g, \"row_prefill_s\": %.17g, "
                "\"session_s\": %.17g}\n",
                s.total_s(), s.load_s, s.row_prefill_s, s.session_s);
    return 0;
}

/// Cold characterization into whatever CTSIM_CACHE_DIR names.
int probe_characterize() {
    const auto t0 = Clock::now();
    auto lib = delaylib::FittedLibrary::load_or_characterize(kLibraryCache, tek(), buflib(), {});
    std::printf("{\"characterize_s\": %.17g}\n", seconds_between(t0, Clock::now()));
    return lib ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: ctsim_perfbench --workload synth_large|signoff_gsrc|serve_mixed "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       ctsim_perfbench --probe setup --workload NAME\n"
                 "       ctsim_perfbench --probe characterize\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    if (argc % 2 == 0) return usage();
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string k = argv[i], v = argv[i + 1];
            if (k == "--workload") a.workload = v;
            else if (k == "--probe") a.probe = v;
            else if (k == "--seed") a.seed = static_cast<unsigned>(std::stoul(v));
            else if (k == "--seconds") a.seconds = std::stod(v);
            else if (k == "--trace") a.trace = v == "1";
            else if (k == "--trace-out") a.trace_out = v;
            else return usage();
        }
    } catch (const std::exception&) {  // a number that does not parse
        return usage();
    }
    if (a.probe == "characterize") return probe_characterize();
    static const std::set<std::string> workloads = {"synth_large", "signoff_gsrc",
                                                    "serve_mixed"};
    if (!workloads.count(a.workload) || a.seed < 1) return usage();
    if (a.probe == "setup") return probe_setup(a);
    if (!a.probe.empty()) return usage();
    try {
        Run run(a);
        return run.go();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
        return 1;
    }
}
