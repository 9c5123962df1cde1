// Stage decomposition: cut a buffered clock-tree netlist at buffer
// boundaries into driver + RC-tree components.
//
// This mirrors the paper's Sec 3.2: "We partition our clock trees into
// smaller components with cuts on buffered nodes. The components act
// as units on which we perform delay and slew estimations." The same
// decomposition drives both the transient simulator (each stage is
// solved with its driver's real output waveform) and the library-based
// timing engine.
#ifndef CTSIM_CIRCUIT_STAGES_H
#define CTSIM_CIRCUIT_STAGES_H

#include <vector>

#include "circuit/netlist.h"
#include "circuit/rc_tree.h"

namespace ctsim::circuit {

/// A load tap at the boundary of a stage.
struct StageLoad {
    enum class Kind { buffer_input, sink };
    Kind kind{Kind::sink};
    int net_node{-1};     ///< node id in the Netlist
    int rc_node{-1};      ///< node id in the stage's RcTree
    int buffer_index{-1}; ///< for buffer_input: index into Netlist::buffers()
};

/// One simulation/analysis unit: a driver (the netlist source or a
/// buffer) plus the RC tree it drives, ending at buffer inputs and sinks.
struct Stage {
    int driver_buffer{-1};  ///< index into Netlist::buffers(); -1 = source-driven
    int root_net_node{-1};
    RcTree tree;            ///< node 0 corresponds to root_net_node
    std::vector<StageLoad> loads;
};

struct DecomposeOptions {
    /// Maximum pi-segment length when expanding wires [um]. Shorter
    /// segments track waveform distortion along the wire more closely.
    double max_segment_um{50.0};
    int min_segments_per_wire{1};
};

/// Decompose `net` into stages in topological order (drivers before
/// the stages their loads drive). Wire RC values and buffer gate caps
/// come from `tech` / `lib`. Stages come in BFS order over the stage
/// tree, so each stage-tree level is a contiguous range. Throws
/// util::Error (invalid_input) if a net node is driven twice.
std::vector<Stage> decompose(const Netlist& net, const tech::Technology& tech,
                             const tech::BufferLibrary& lib,
                             const DecomposeOptions& opt = {});

}  // namespace ctsim::circuit

#endif  // CTSIM_CIRCUIT_STAGES_H
