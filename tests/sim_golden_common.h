// Transient-simulation golden: shared between sim_golden_test
// (compares) and tools/update_golden.cpp (regenerates).
//
// Unlike the synthesis snapshots (golden_common.h), this pin has no
// tolerance. Every number is printed with %.17g, which round-trips a
// double exactly, so the file is a bit-for-bit record of what the
// transient solver produces:
//  * per-stage node timing (t10/t50/t90 of every RC node, the buffer
//    internal node, the settle flag and a strided sample of one tap
//    waveform) for an ideal-source stage and for each buffer type
//    driving a root with several wire children;
//  * per-sink arrival and slew plus skew / worst slew / max latency
//    of the GSRC r1 tree simulated at dt 1 ps (the Table 5.1
//    protocol).
// A solver change that is meant to be exact must leave the file
// untouched. A change that is meant to move the numbers regenerates
// it with `build/update_golden --update-golden` and justifies the
// diff in review.
#ifndef CTSIM_TESTS_SIM_GOLDEN_COMMON_H
#define CTSIM_TESTS_SIM_GOLDEN_COMMON_H

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bench_io/synthetic.h"
#include "sim/netlist_sim.h"
#include "tests/cts_test_util.h"
#include "tests/golden_common.h"

namespace ctsim::testutil {

inline std::string sim_golden_path() { return golden_dir() + "/sim_exact.golden"; }

inline std::string fmt17(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

inline std::string fmt17(const std::optional<double>& v) { return v ? fmt17(*v) : "none"; }

/// A root with three wire children; the middle one branches again, so
/// the root and one internal node both have several children.
inline circuit::RcTree sim_golden_tree(int& tap) {
    const tech::Technology& tk = tek();
    circuit::RcTree t;
    t.add_cap(0, 4.0);
    const double r = tk.wire_res_kohm_per_um, c = tk.wire_cap_ff_per_um;
    t.add_cap(t.add_wire(0, 700.0, r, c, 6), 12.0);
    const int mid = t.add_wire(0, 1500.0, r, c, 10);
    t.add_cap(t.add_wire(mid, 400.0, r, c, 4), 20.0);
    tap = t.add_wire(mid, 900.0, r, c, 6);
    t.add_cap(tap, 8.0);
    t.add_cap(t.add_wire(0, 250.0, r, c, 3), 30.0);
    return t;
}

inline void render_stage(std::ostringstream& out, const std::string& name,
                         const tech::BufferType* driver) {
    int tap = 0;
    const circuit::RcTree t = sim_golden_tree(tap);
    const sim::Waveform in = sim::Waveform::ramp(tek().vdd, 60.0, 10.0, 0.5);
    sim::SolverOptions opt;
    opt.dt_ps = 0.5;
    const sim::StageResult r = sim::simulate_stage(t, driver, in, {tap}, tek(), opt);
    out << "stage " << name << " nodes " << t.size() << " settled " << r.settled << "\n";
    for (int i = 0; i < t.size(); ++i) {
        const sim::NodeTiming& nt = r.node_timing[i];
        out << "node " << i << ' ' << fmt17(nt.t10) << ' ' << fmt17(nt.t50) << ' '
            << fmt17(nt.t90) << "\n";
    }
    out << "internal " << fmt17(r.internal_node.t10) << ' ' << fmt17(r.internal_node.t50)
        << ' ' << fmt17(r.internal_node.t90) << "\n";
    const std::vector<double>& s = r.tap_waveforms[0].samples();
    out << "tap " << tap << " samples " << s.size() << "\n";
    for (std::size_t k = 0; k < s.size(); k += 16)
        out << "tap_sample " << k << ' ' << fmt17(s[k]) << "\n";
}

/// The whole golden file, as text.
inline std::string render_sim_golden() {
    std::ostringstream out;
    out << "# ctsim exact transient-simulation golden -- regenerate with build/update_golden\n";
    render_stage(out, "ideal", nullptr);
    for (int b = 0; b < buflib().count(); ++b)
        render_stage(out, "buffer" + std::to_string(b), &buflib().type(b));

    const auto spec = bench_io::find_benchmark("r1");
    const auto sinks = bench_io::generate(*spec);
    const cts::SynthesisResult res =
        cts::synthesize(sinks, fitted_quick(), cts::SynthesisOptions{});
    sim::NetlistSimOptions so;
    so.solver.dt_ps = 1.0;
    const sim::NetlistSimReport rep =
        sim::simulate_netlist(res.netlist(tek(), buflib()), tek(), buflib(), so);
    out << "netlist r1 dt_ps 1 complete " << rep.complete << " sinks " << rep.arrivals.size()
        << "\n";
    for (const sim::SinkArrival& a : rep.arrivals)
        out << "sink " << a.net_node << ' ' << fmt17(a.t50_ps) << ' ' << fmt17(a.slew_ps)
            << "\n";
    out << "skew_ps " << fmt17(rep.skew_ps) << "\n";
    out << "worst_slew_ps " << fmt17(rep.worst_slew_ps) << "\n";
    out << "max_latency_ps " << fmt17(rep.max_latency_ps) << "\n";
    return out.str();
}

inline std::optional<std::string> read_sim_golden() {
    std::ifstream in(sim_golden_path());
    if (!in) return std::nullopt;
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

inline bool write_sim_golden(const std::string& text) {
    std::ofstream out(sim_golden_path());
    return static_cast<bool>(out << text);
}

}  // namespace ctsim::testutil

#endif  // CTSIM_TESTS_SIM_GOLDEN_COMMON_H
