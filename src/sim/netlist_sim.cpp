#include "sim/netlist_sim.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/status.h"
#include "util/thread_pool.h"

namespace ctsim::sim {

namespace {

/// Drop the leading flat (near-zero) part of a waveform so deep stages
/// are simulated only around their own activity window.
Waveform trimmed(Waveform w, double threshold, int margin_samples) {
    const auto& s = w.samples();
    std::size_t first = 0;
    while (first < s.size() && s[first] <= threshold) ++first;
    if (first <= static_cast<std::size_t>(margin_samples)) return w;
    first -= static_cast<std::size_t>(margin_samples);
    std::vector<double> cut(s.begin() + static_cast<std::ptrdiff_t>(first), s.end());
    return Waveform(w.t0() + w.dt() * static_cast<double>(first), w.dt(), std::move(cut));
}

/// What one stage contributes to the report; folded in stage order.
struct StageSummary {
    bool complete{true};
    double worst_slew_ps{0.0};
    std::vector<SinkArrival> arrivals;  ///< in load order
};

/// Split the stages, in decomposition order, into maximal contiguous
/// ranges whose stages are driven only by earlier ranges. For the BFS
/// order of `circuit::decompose` these are exactly the stage-tree
/// levels. Returns the range starts plus a final `stages.size()`.
std::vector<std::size_t> level_bounds(const std::vector<circuit::Stage>& stages,
                                      std::size_t buffer_count) {
    std::vector<long> producer(buffer_count, -1);  // stage whose load is the buffer's input
    std::vector<std::size_t> bounds{0};
    for (std::size_t s = 0; s < stages.size(); ++s) {
        const int d = stages[s].driver_buffer;
        if (d >= 0) {
            if (producer[d] < 0)
                util::throw_status(
                    util::Status::internal("netlist sim: stage simulated before its driver"));
            if (static_cast<std::size_t>(producer[d]) >= bounds.back()) bounds.push_back(s);
        }
        for (const circuit::StageLoad& ld : stages[s].loads)
            if (ld.kind == circuit::StageLoad::Kind::buffer_input)
                producer[ld.buffer_index] = static_cast<long>(s);
    }
    bounds.push_back(stages.size());
    return bounds;
}

}  // namespace

NetlistSimReport simulate_netlist(const circuit::Netlist& net, const tech::Technology& tech,
                                  const tech::BufferLibrary& lib,
                                  const NetlistSimOptions& opt) {
    net.validate();
    opt.solver.validate();
    const std::vector<circuit::Stage> stages = circuit::decompose(net, tech, lib, opt.decompose);
    const std::vector<std::size_t> bounds = level_bounds(stages, net.buffers().size());

    const Waveform source = Waveform::ramp(tech.vdd, opt.source_slew_ps, opt.source_start_ps,
                                           opt.solver.dt_ps);

    NetlistSimReport report;
    report.complete = true;
    report.source_t50_ps = source.t50(tech.vdd).value();

    // Input waveform per buffer index: written by the stage whose load
    // it is, moved out and released by the stage the buffer drives, one
    // level later. Each stage writes only its own summary. Both are
    // sized here: no container shared between stages grows inside a
    // level.
    std::vector<Waveform> buffer_inputs(net.buffers().size());
    std::vector<StageSummary> summaries(stages.size());

    const auto run_stage = [&](std::size_t si) {
        const circuit::Stage& st = stages[si];
        Waveform input;
        const tech::BufferType* driver = nullptr;
        if (st.driver_buffer < 0) {
            input = source;
        } else {
            input = std::exchange(buffer_inputs[st.driver_buffer], Waveform{});
            driver = &lib.type(net.buffers()[st.driver_buffer].type);
        }

        std::vector<int> taps;
        for (const circuit::StageLoad& ld : st.loads)
            if (ld.kind == circuit::StageLoad::Kind::buffer_input) taps.push_back(ld.rc_node);

        StageResult res = simulate_stage(st.tree, driver, input, taps, tech, opt.solver);
        StageSummary& sum = summaries[si];
        if (!res.settled) sum.complete = false;

        // Worst slew over every node of the stage.
        for (const NodeTiming& nt : res.node_timing) {
            if (const auto s = nt.slew())
                sum.worst_slew_ps = std::max(sum.worst_slew_ps, *s);
            else
                sum.complete = false;
        }

        // A tap waveform is trimmed as it is stored, so a slot holds
        // only the part its consumer simulates.
        std::size_t tap_idx = 0;
        for (const circuit::StageLoad& ld : st.loads) {
            if (ld.kind == circuit::StageLoad::Kind::buffer_input) {
                buffer_inputs[ld.buffer_index] =
                    trimmed(std::move(res.tap_waveforms[tap_idx++]), 0.002 * tech.vdd, 4);
            } else {
                const NodeTiming& nt = res.node_timing[ld.rc_node];
                if (nt.t50 && nt.slew()) {
                    sum.arrivals.push_back({ld.net_node, *nt.t50, *nt.slew()});
                } else {
                    sum.complete = false;
                }
            }
        }
    };

    // One level at a time; its stages read only slots written by
    // earlier levels and write only their own. The pool is never wider
    // than the widest level; width 1 runs inline.
    std::size_t widest = 0;
    for (std::size_t l = 0; l + 1 < bounds.size(); ++l)
        widest = std::max(widest, bounds[l + 1] - bounds[l]);
    util::ThreadPool pool(static_cast<int>(std::min(
        widest, static_cast<std::size_t>(util::ThreadPool::resolve_thread_count(0)))));
    for (std::size_t l = 0; l + 1 < bounds.size(); ++l) {
        const std::size_t first = bounds[l];
        pool.parallel_for(static_cast<int>(bounds[l + 1] - first),
                          [&](int i) { run_stage(first + static_cast<std::size_t>(i)); });
    }

    // Fold in stage order: the same max sequence and the same arrival
    // order as one serial pass over the stages, so the report is
    // bit-identical at any width.
    for (const StageSummary& sum : summaries) {
        if (!sum.complete) report.complete = false;
        report.worst_slew_ps = std::max(report.worst_slew_ps, sum.worst_slew_ps);
        report.arrivals.insert(report.arrivals.end(), sum.arrivals.begin(), sum.arrivals.end());
    }

    if (report.arrivals.empty()) {
        report.complete = false;
        return report;
    }
    double lo = std::numeric_limits<double>::max();
    double hi = std::numeric_limits<double>::lowest();
    for (const SinkArrival& a : report.arrivals) {
        lo = std::min(lo, a.t50_ps);
        hi = std::max(hi, a.t50_ps);
    }
    report.skew_ps = hi - lo;
    report.max_latency_ps = hi - report.source_t50_ps;
    report.min_latency_ps = lo - report.source_t50_ps;
    return report;
}

}  // namespace ctsim::sim
