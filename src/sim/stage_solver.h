// Transient solver for one stage: a driver (ideal source or two-
// inverter buffer) plus a tree-structured RC network.
//
// Numerics:
//  * theta-method integration with fixed step (theta = 0.55 by
//    default: trapezoidal-like accuracy with enough damping that the
//    stiff modes of short wire segments cannot ring);
//  * device (inverter) currents are treated fully implicitly
//    (backward Euler), which kills the nonlinear limit cycles plain
//    trapezoidal exhibits on strongly driven light loads;
//  * the RC tree gives a symmetric tree-structured system with no
//    fill-in. Only the root diagonal ever changes, so the non-root
//    pivots are factored once per stage; each step eliminates its rhs
//    leaf-to-root once (O(n)) and back-substitutes once (O(n));
//  * the buffer's two inverters are the only nonlinear elements, and
//    each sees a fixed input voltage within a step, so its gate terms
//    (the power-law part of the device model) are evaluated once per
//    step. Stage 1 drives only the internal node; stage 2 injects
//    into the tree root. Both are scalar Newton loops, the stage-2 one
//    on the eliminated 1x1 root system (O(root children) per iterate).
//
// The floating-point operations, and their order, are those of
// re-eliminating the whole tree per Newton iterate, so results are
// bit-identical to that textbook form; tests/sim_golden_test.cpp pins
// them exactly (see docs/simulation.md).
//
// This is the "SPICE" of this repository: the characterization sweeps
// of Chapter 3 and the final verification of Tables 5.1-5.3 both run
// through this solver.
#ifndef CTSIM_SIM_STAGE_SOLVER_H
#define CTSIM_SIM_STAGE_SOLVER_H

#include <optional>
#include <vector>

#include "circuit/rc_tree.h"
#include "sim/waveform.h"
#include "tech/buffer_lib.h"
#include "tech/technology.h"

namespace ctsim::sim {

/// Current out of an inverter's output node and its derivative w.r.t.
/// the output voltage.
struct InverterEval {
    double i_out_ma{0.0};
    double di_dvout{0.0};
};

InverterEval inverter_current(const tech::Technology& t, const tech::InverterGeom& g,
                              double vin, double vout);

struct SolverOptions {
    double dt_ps{0.5};
    double theta{0.55};           ///< implicitness of the RC integration
    double max_window_ps{40000.0};
    double settle_v_frac{0.995};  ///< all nodes must pass this to stop
    double tail_ps{25.0};         ///< extra time simulated after settling
    double newton_tol_v{1e-7};
    int max_newton_iters{50};

    /// Throws util::Error(invalid_input) unless dt_ps is finite and
    /// > 0, theta is in (0, 1], max_window_ps > 0 and
    /// max_newton_iters >= 1 (a bad step never advances time).
    void validate() const;
};

struct NodeTiming {
    std::optional<double> t10;
    std::optional<double> t50;
    std::optional<double> t90;
    std::optional<double> slew() const {
        if (t10 && t90) return *t90 - *t10;
        return std::nullopt;
    }
};

struct StageResult {
    std::vector<NodeTiming> node_timing;   ///< per RC-tree node
    std::vector<Waveform> tap_waveforms;   ///< per requested tap, in input order
    bool settled{false};
    /// 50% crossing at the buffer driver's *input* is external; this is
    /// the timing at the internal (mid) node, for debugging.
    NodeTiming internal_node;
};

/// Simulate one stage.
///  - `driver`: nullptr for an ideal-source stage (input applied
///    directly at tree node 0), otherwise the buffer type whose input
///    sees `input` and whose output drives tree node 0.
///  - `input`: driver input (or source) waveform, in global time.
///  - `taps`: RC-tree node ids whose full waveforms are recorded.
StageResult simulate_stage(const circuit::RcTree& tree, const tech::BufferType* driver,
                           const Waveform& input, const std::vector<int>& taps,
                           const tech::Technology& tech, const SolverOptions& opt = {});

}  // namespace ctsim::sim

#endif  // CTSIM_SIM_STAGE_SOLVER_H
