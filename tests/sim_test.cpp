#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "circuit/rc_tree.h"
#include "sim/netlist_sim.h"
#include "sim/stage_solver.h"
#include "sim/waveform.h"
#include "util/status.h"

namespace ctsim::sim {
namespace {

tech::Technology tek() { return tech::Technology::ptm45_aggressive(); }

TEST(Waveform, RampHasRequestedSlew) {
    const Waveform w = Waveform::ramp(1.0, 100.0, 5.0, 0.5);
    ASSERT_TRUE(w.slew_10_90(1.0).has_value());
    EXPECT_NEAR(*w.slew_10_90(1.0), 100.0, 0.5);
}

TEST(Waveform, SmoothHasRequestedSlew) {
    const Waveform w = Waveform::smooth(1.0, 150.0, 0.0, 0.25);
    ASSERT_TRUE(w.slew_10_90(1.0).has_value());
    EXPECT_NEAR(*w.slew_10_90(1.0), 150.0, 0.5);
}

TEST(Waveform, ValueClampsOutsideWindow) {
    const Waveform w(10.0, 1.0, {0.0, 0.5, 1.0});
    EXPECT_DOUBLE_EQ(w.value_at(0.0), 0.0);
    EXPECT_DOUBLE_EQ(w.value_at(10.5), 0.25);
    EXPECT_DOUBLE_EQ(w.value_at(100.0), 1.0);
}

TEST(Waveform, CrossingInterpolatesLinearly) {
    const Waveform w(0.0, 2.0, {0.0, 1.0});
    ASSERT_TRUE(w.crossing_time(0.25).has_value());
    EXPECT_NEAR(*w.crossing_time(0.25), 0.5, 1e-12);
}

TEST(CrossingTracker, MatchesOfflineMeasurement) {
    const Waveform w = Waveform::smooth(1.0, 80.0, 3.0, 0.5);
    CrossingTracker tr(1.0);
    for (std::size_t i = 0; i < w.size(); ++i)
        tr.observe(w.t0() + w.dt() * static_cast<double>(i), w.samples()[i]);
    ASSERT_TRUE(tr.complete());
    EXPECT_NEAR(*tr.slew(), *w.slew_10_90(1.0), 1e-9);
    EXPECT_NEAR(*tr.t50(), *w.t50(1.0), 1e-9);
}

TEST(Inverter, PullUpWhenInputLow) {
    const tech::Technology t = tek();
    const tech::InverterGeom g{1.0, 2.0};
    EXPECT_GT(inverter_current(t, g, 0.0, 0.2).i_out_ma, 0.0);   // charging
    EXPECT_LT(inverter_current(t, g, t.vdd, 0.8).i_out_ma, 0.0); // discharging
    EXPECT_LE(inverter_current(t, g, 0.5, 0.5).di_dvout, 0.0);   // stabilizing
}

// Single-pole RC driven by a near-step: v(t) = 1 - exp(-t/RC),
// t50 = RC ln 2, 10-90 slew = RC ln 9.
TEST(StageSolver, SinglePoleStepResponse) {
    circuit::RcTree t;
    t.add_node(0, 1.0 /*kOhm*/, 100.0 /*fF*/);  // tau = 100 ps
    const Waveform in = Waveform::ramp(1.0, 1.0, 10.0, 0.05);  // ~ideal step
    SolverOptions opt;
    opt.dt_ps = 0.05;
    const StageResult r = simulate_stage(t, nullptr, in, {}, tek(), opt);
    ASSERT_TRUE(r.settled);
    const auto& nt = r.node_timing[1];
    ASSERT_TRUE(nt.t50 && nt.slew());
    const double t_in50 = 10.0 + 1.0 / 0.8 / 2.0;
    EXPECT_NEAR(*nt.t50 - t_in50, 100.0 * std::log(2.0), 1.5);
    EXPECT_NEAR(*nt.slew(), 100.0 * std::log(9.0), 3.0);
}

// Distributed RC line: 50% delay of a long wire should be close to the
// classic 0.38 rcL^2 (vs Elmore's 0.5 rcL^2 overestimate).
TEST(StageSolver, DistributedLineDelayNear038) {
    const tech::Technology tk = tek();
    circuit::RcTree t;
    const double len = 4000.0;
    t.add_wire(0, len, tk.wire_res_kohm_per_um, tk.wire_cap_ff_per_um, 80);
    const Waveform in = Waveform::ramp(1.0, 1.0, 5.0, 0.1);
    SolverOptions opt;
    opt.dt_ps = 0.1;
    const StageResult r = simulate_stage(t, nullptr, in, {}, tk, opt);
    ASSERT_TRUE(r.settled);
    const double rc = tk.wire_res_kohm(len) * tk.wire_cap_ff(len);
    const auto& far = r.node_timing.back();
    ASSERT_TRUE(far.t50.has_value());
    const double delay = *far.t50 - (5.0 + 1.0 / 0.8 / 2.0);
    EXPECT_NEAR(delay, 0.38 * rc, 0.08 * rc);
    EXPECT_GT(0.5 * rc, delay);  // Elmore overestimates
}

TEST(StageSolver, BufferDrivesLoadRailToRail) {
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    circuit::RcTree t;
    t.add_node(0, 0.05, 50.0);  // lumped load
    const Waveform in = Waveform::ramp(tk.vdd, 80.0, 10.0, 0.25);
    SolverOptions opt;
    opt.dt_ps = 0.25;
    const StageResult r = simulate_stage(t, &lib.type(2), in, {}, tk, opt);
    ASSERT_TRUE(r.settled);
    ASSERT_TRUE(r.node_timing[0].t50.has_value());
    ASSERT_TRUE(r.node_timing[0].slew().has_value());
    // Output transitions after the input and with a finite slew.
    EXPECT_GT(*r.node_timing[0].t50, *in.t50(tk.vdd));
    EXPECT_GT(*r.node_timing[0].slew(), 1.0);
    EXPECT_LT(*r.node_timing[0].slew(), 200.0);
}

TEST(StageSolver, BiggerBufferIsFasterIntoSameLoad) {
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    const Waveform in = Waveform::ramp(tk.vdd, 80.0, 10.0, 0.25);
    SolverOptions opt;
    opt.dt_ps = 0.25;
    double delays[2];
    int i = 0;
    for (int type : {0, 2}) {
        circuit::RcTree t;
        t.add_node(0, 0.05, 400.0);
        const StageResult r = simulate_stage(t, &lib.type(type), in, {}, tk, opt);
        delays[i++] = *r.node_timing[1].t50 - *in.t50(tk.vdd);
    }
    EXPECT_GT(delays[0], delays[1]);
}

TEST(StageSolver, InputSlewAffectsBufferDelay) {
    // The paper's motivating observation: buffer intrinsic delay is
    // sensitive to input slew.
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    SolverOptions opt;
    opt.dt_ps = 0.25;
    double delay[2];
    int i = 0;
    for (double slew : {30.0, 150.0}) {
        circuit::RcTree t;
        t.add_node(0, 0.05, 100.0);
        const Waveform in = Waveform::ramp(tk.vdd, slew, 10.0, 0.25);
        const StageResult r = simulate_stage(t, &lib.type(0), in, {}, tk, opt);
        delay[i++] = *r.node_timing[1].t50 - *in.t50(tk.vdd);
    }
    EXPECT_GT(std::abs(delay[1] - delay[0]), 2.0);  // several ps of shift
}

// A step that never advances time used to hang the solver; every bad
// option is now a typed invalid_input error, raised before any step.
TEST(StageSolver, RejectsInvalidOptions) {
    circuit::RcTree t;
    t.add_node(0, 1.0, 100.0);
    const Waveform in = Waveform::ramp(1.0, 10.0, 5.0, 0.5);
    const auto rejects = [&](const SolverOptions& opt) {
        try {
            simulate_stage(t, nullptr, in, {}, tek(), opt);
        } catch (const util::Error& e) {
            return e.status().code() == util::StatusCode::invalid_input;
        }
        return false;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double dt : {0.0, -1.0, nan, inf}) {
        SolverOptions opt;
        opt.dt_ps = dt;
        EXPECT_TRUE(rejects(opt)) << "dt_ps " << dt;
    }
    for (const double theta : {0.0, -0.5, 1.5, nan}) {
        SolverOptions opt;
        opt.theta = theta;
        EXPECT_TRUE(rejects(opt)) << "theta " << theta;
    }
    for (const double window : {0.0, -10.0, nan}) {
        SolverOptions opt;
        opt.max_window_ps = window;
        EXPECT_TRUE(rejects(opt)) << "max_window_ps " << window;
    }
    for (const int iters : {0, -3}) {
        SolverOptions opt;
        opt.max_newton_iters = iters;
        EXPECT_TRUE(rejects(opt)) << "max_newton_iters " << iters;
    }
    SolverOptions edge;
    edge.theta = 1.0;  // backward Euler is the inclusive end of the range
    edge.max_newton_iters = 1;
    EXPECT_FALSE(rejects(edge));
}

TEST(NetlistSim, RejectsInvalidInputBeforeBuildingTheSource) {
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    circuit::Netlist net;
    const int src = net.add_node({0, 0});
    const int bo = net.add_node({0, 0});
    net.add_buffer(src, bo, 1);
    net.add_wire(bo, net.add_node({300, 0}, 10.0, "a"), 300.0);
    net.set_source(src);
    ASSERT_TRUE(simulate_netlist(net, tk, lib).complete);
    const auto rejects = [&](const circuit::Netlist& n, const NetlistSimOptions& opt) {
        try {
            simulate_netlist(n, tk, lib, opt);
        } catch (const util::Error& e) {
            return e.status().code() == util::StatusCode::invalid_input;
        }
        return false;
    };
    for (const double dt : {0.0, std::numeric_limits<double>::quiet_NaN()}) {
        NetlistSimOptions opt;
        opt.solver.dt_ps = dt;
        EXPECT_TRUE(rejects(net, opt)) << "dt_ps " << dt;
    }
    circuit::Netlist lost = net;
    lost.add_node({900, 0}, 10.0, "unreachable");
    EXPECT_TRUE(rejects(lost, {}));
}

TEST(Waveform, RejectsStepWithoutFiniteSampleCount) {
    for (const double dt : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(Waveform::ramp(1.0, 50.0, 0.0, dt), util::Error) << "dt " << dt;
        EXPECT_THROW(Waveform::smooth(1.0, 50.0, 0.0, dt), util::Error) << "dt " << dt;
    }
    EXPECT_THROW(Waveform::ramp(1.0, std::numeric_limits<double>::infinity(), 0.0, 1.0),
                 util::Error);
}

TEST(NetlistSim, TwoSinkSymmetricTreeHasTinySkew) {
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    circuit::Netlist net;
    const int src = net.add_node({0, 0});
    const int bo = net.add_node({0, 0});
    const int a = net.add_node({-800, 0}, 10.0, "a");
    const int b = net.add_node({800, 0}, 10.0, "b");
    net.add_buffer(src, bo, 2);
    net.add_wire(bo, a, 800.0);
    net.add_wire(bo, b, 800.0);
    net.set_source(src);

    const NetlistSimReport rep = simulate_netlist(net, tk, lib);
    ASSERT_TRUE(rep.complete);
    EXPECT_LT(rep.skew_ps, 0.05);
    EXPECT_GT(rep.max_latency_ps, 5.0);
    EXPECT_GT(rep.worst_slew_ps, 0.0);
    EXPECT_EQ(rep.arrivals.size(), 2u);
}

TEST(NetlistSim, AsymmetricTreeHasPositiveSkew) {
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    circuit::Netlist net;
    const int src = net.add_node({0, 0});
    const int bo = net.add_node({0, 0});
    const int a = net.add_node({-200, 0}, 10.0, "a");
    const int b = net.add_node({2000, 0}, 10.0, "b");
    net.add_buffer(src, bo, 2);
    net.add_wire(bo, a, 200.0);
    net.add_wire(bo, b, 2000.0);
    net.set_source(src);

    const NetlistSimReport rep = simulate_netlist(net, tk, lib);
    ASSERT_TRUE(rep.complete);
    EXPECT_GT(rep.skew_ps, 5.0);
}

TEST(NetlistSim, LongerWireWorseSlew) {
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    double slew[2];
    int i = 0;
    for (double len : {1000.0, 4000.0}) {
        circuit::Netlist net;
        const int src = net.add_node({0, 0});
        const int bo = net.add_node({0, 0});
        const int s = net.add_node({len, 0}, 10.0, "s");
        net.add_buffer(src, bo, 2);
        net.add_wire(bo, s, len);
        net.set_source(src);
        const NetlistSimReport rep = simulate_netlist(net, tk, lib);
        ASSERT_TRUE(rep.complete);
        slew[i++] = rep.worst_slew_ps;
    }
    EXPECT_GT(slew[1], 2.0 * slew[0]);
}

}  // namespace
}  // namespace ctsim::sim
