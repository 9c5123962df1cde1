// Whole-clock-tree transient verification.
//
// Decomposes the netlist into buffer-bounded stages, simulates them in
// topological order propagating real waveforms across buffer
// boundaries (the stages of one stage-tree level concurrently, with a
// report bit-identical at any width), and reports exactly what the
// paper's tables report from SPICE: worst slew over all nodes, clock
// skew, and maximum latency (Sec 5.1: "The worst slew, the skew, and
// the maximum latency are obtained from SPICE simulation of the clock
// tree netlist").
#ifndef CTSIM_SIM_NETLIST_SIM_H
#define CTSIM_SIM_NETLIST_SIM_H

#include <vector>

#include "circuit/netlist.h"
#include "circuit/stages.h"
#include "sim/stage_solver.h"

namespace ctsim::sim {

struct SinkArrival {
    int net_node{-1};
    double t50_ps{0.0};    ///< absolute 50% crossing time
    double slew_ps{0.0};
};

struct NetlistSimReport {
    bool complete{false};        ///< every sink transitioned in-window
    double worst_slew_ps{0.0};   ///< max 10-90% slew over all nodes
    double skew_ps{0.0};         ///< max - min sink arrival
    double max_latency_ps{0.0};  ///< max sink arrival - source 50% crossing
    double min_latency_ps{0.0};
    double source_t50_ps{0.0};
    std::vector<SinkArrival> arrivals;
};

struct NetlistSimOptions {
    double source_slew_ps{50.0};  ///< ideal ramp at the clock source
    double source_start_ps{10.0};
    SolverOptions solver{};
    circuit::DecomposeOptions decompose{};
};

/// Runs each stage-tree level on min(level width, hardware threads)
/// threads; the report does not depend on the count. Throws
/// util::Error: invalid_input for a defective netlist or a bad solver
/// option (see SolverOptions::validate), internal if the decomposition
/// orders a stage before its driver.
NetlistSimReport simulate_netlist(const circuit::Netlist& net, const tech::Technology& tech,
                                  const tech::BufferLibrary& lib,
                                  const NetlistSimOptions& opt = {});

}  // namespace ctsim::sim

#endif  // CTSIM_SIM_NETLIST_SIM_H
