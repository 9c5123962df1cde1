// Table 5.1: GSRC benchmarks r1-r5.
//
// For each instance: our worst slew / skew / max latency measured by
// transient simulation of the synthesized netlist (the paper's
// protocol), the paper's published numbers, and -- executable instead
// of merely quoted -- the merge-node-only buffering baseline standing
// in for the comparison flows [6][8][16].
#include <cstdio>

#include "baseline/merge_buffered.h"
#include "bench/bench_util.h"

int main() {
    using namespace ctsim;
    bench::print_header("Table 5.1 -- GSRC benchmarks (synthetic stand-ins, see DESIGN.md)");
    std::printf("%-4s %6s | %10s %8s %9s | %10s %8s %9s | %12s %12s\n", "", "sinks",
                "slew[ps]", "skew[ps]", "lat[ns]", "p.slew", "p.skew", "p.lat",
                "mrg-buf slew", "mrg-buf skew");

    bool all_slew_ok = true;
    bool beats_baseline_slew = true;
    bool all_complete = true;
    for (const auto& spec : bench_io::gsrc_suite()) {
        cts::SynthesisOptions opt;
        const bench::InstanceResult r = bench::run_instance(spec, opt);

        // Merge-node-only baseline (the restricted buffer-location policy).
        baseline::MergeBufferedOptions mbo;
        const auto sinks = bench_io::generate(spec);
        const auto mb = baseline::merge_buffered_synthesize(sinks, bench::fitted(), mbo);
        sim::NetlistSimOptions so;
        so.solver.dt_ps = 2.0;
        so.solver.max_window_ps = 2e5;
        const auto mb_rep = sim::simulate_netlist(
            mb.tree.to_netlist(mb.root, bench::tek(), bench::buflib(),
                               bench::buflib().largest()),
            bench::tek(), bench::buflib(), so);

        std::printf("%-4s %6d | %10.1f %8.2f %9.3f | %10.1f %8.1f %9.2f | %12.1f %12.2f\n",
                    spec.name.c_str(), spec.sink_count, r.sim.worst_slew_ps, r.sim.skew_ps,
                    r.sim.max_latency_ps / 1000.0, spec.paper_worst_slew_ps,
                    spec.paper_skew_ps, spec.paper_latency_ns, mb_rep.worst_slew_ps,
                    mb_rep.skew_ps);
        if (!r.sim.complete || !mb_rep.complete) {
            std::printf("%-4s simulation incomplete (ours %s, merge-buffered %s)\n",
                        spec.name.c_str(), r.sim.complete ? "complete" : "INCOMPLETE",
                        mb_rep.complete ? "complete" : "INCOMPLETE");
            all_complete = false;
        }
        if (r.sim.worst_slew_ps > opt.slew_limit_ps) all_slew_ok = false;
        if (mb_rep.worst_slew_ps < r.sim.worst_slew_ps) beats_baseline_slew = false;
    }

    std::printf("\npaper comparison skews (Table 5.1): [6] 100/96/101/176/110,"
                " [8] 57.0/87.4/59.6/98.6/86.9, [16] 37.0/59.5/49.5/59.8/50.6 ps\n");
    std::printf("shape checks: worst slew <= 100 ps on every instance: %s; "
                "merge-node-only baseline violates the slew limit our flow holds: %s\n",
                all_slew_ok ? "yes" : "NO", beats_baseline_slew ? "yes" : "NO");
    // Nonzero exit when a shape check fails or a simulation did not
    // complete, so the table doubles as a gate.
    return all_complete && all_slew_ok && beats_baseline_slew ? 0 : 1;
}
