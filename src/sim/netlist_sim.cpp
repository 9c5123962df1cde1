#include "sim/netlist_sim.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace ctsim::sim {

namespace {

/// Drop the leading flat (near-zero) part of a waveform so deep stages
/// are simulated only around their own activity window.
Waveform trimmed(const Waveform& w, double threshold, int margin_samples) {
    const auto& s = w.samples();
    std::size_t first = 0;
    while (first < s.size() && s[first] <= threshold) ++first;
    if (first <= static_cast<std::size_t>(margin_samples)) return w;
    first -= static_cast<std::size_t>(margin_samples);
    std::vector<double> cut(s.begin() + static_cast<std::ptrdiff_t>(first), s.end());
    return Waveform(w.t0() + w.dt() * static_cast<double>(first), w.dt(), std::move(cut));
}

}  // namespace

NetlistSimReport simulate_netlist(const circuit::Netlist& net, const tech::Technology& tech,
                                  const tech::BufferLibrary& lib,
                                  const NetlistSimOptions& opt) {
    net.validate();
    opt.solver.validate();
    const std::vector<circuit::Stage> stages = circuit::decompose(net, tech, lib, opt.decompose);

    const Waveform source = Waveform::ramp(tech.vdd, opt.source_slew_ps, opt.source_start_ps,
                                           opt.solver.dt_ps);

    NetlistSimReport report;
    report.complete = true;
    report.source_t50_ps = source.t50(tech.vdd).value();

    // Input waveform per buffer index, produced by the driving stage.
    std::unordered_map<int, Waveform> buffer_inputs;

    for (const circuit::Stage& st : stages) {
        Waveform input;
        const tech::BufferType* driver = nullptr;
        if (st.driver_buffer < 0) {
            input = source;
        } else {
            const auto it = buffer_inputs.find(st.driver_buffer);
            if (it == buffer_inputs.end())
                throw std::runtime_error("netlist sim: stage simulated before its driver");
            input = trimmed(it->second, 0.002 * tech.vdd, 4);
            buffer_inputs.erase(it);
            driver = &lib.type(net.buffers()[st.driver_buffer].type);
        }

        std::vector<int> taps;
        for (const circuit::StageLoad& ld : st.loads)
            if (ld.kind == circuit::StageLoad::Kind::buffer_input) taps.push_back(ld.rc_node);

        const StageResult res = simulate_stage(st.tree, driver, input, taps, tech, opt.solver);
        if (!res.settled) report.complete = false;

        // Worst slew over every node of every stage.
        for (const NodeTiming& nt : res.node_timing) {
            if (const auto s = nt.slew())
                report.worst_slew_ps = std::max(report.worst_slew_ps, *s);
            else
                report.complete = false;
        }

        std::size_t tap_idx = 0;
        for (const circuit::StageLoad& ld : st.loads) {
            if (ld.kind == circuit::StageLoad::Kind::buffer_input) {
                buffer_inputs.emplace(ld.buffer_index, res.tap_waveforms[tap_idx++]);
            } else {
                const NodeTiming& nt = res.node_timing[ld.rc_node];
                if (nt.t50 && nt.slew()) {
                    report.arrivals.push_back({ld.net_node, *nt.t50, *nt.slew()});
                } else {
                    report.complete = false;
                }
            }
        }
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
