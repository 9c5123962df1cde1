// Level-parallel signoff must be invisible in its result. The exact
// numbers are pinned by sim_golden_test, which simulates GSRC r1 on the
// parallel path against a golden written by the old serial loop. This
// test covers the level schedule itself on a hand-built deep chain,
// whose levels are mostly one stage wide and end in one eight wide: the
// arrivals come out in decomposition load order, as the serial loop
// emitted them, and repeated runs give the same report bit for bit.
// Runs under TSan in CI, so it is also a race check of the per-buffer
// slots and per-stage summaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/stages.h"
#include "sim/netlist_sim.h"
#include "tests/cts_test_util.h"
#include "util/names.h"

namespace ctsim::testutil {
namespace {

void expect_identical(const sim::NetlistSimReport& want, const sim::NetlistSimReport& got,
                      const std::string& what) {
    EXPECT_EQ(want.complete, got.complete) << what;
    EXPECT_EQ(want.worst_slew_ps, got.worst_slew_ps) << what;
    EXPECT_EQ(want.skew_ps, got.skew_ps) << what;
    EXPECT_EQ(want.max_latency_ps, got.max_latency_ps) << what;
    EXPECT_EQ(want.min_latency_ps, got.min_latency_ps) << what;
    EXPECT_EQ(want.source_t50_ps, got.source_t50_ps) << what;
    ASSERT_EQ(want.arrivals.size(), got.arrivals.size()) << what;
    for (std::size_t i = 0; i < want.arrivals.size(); ++i) {
        EXPECT_EQ(want.arrivals[i].net_node, got.arrivals[i].net_node) << what << " sink " << i;
        EXPECT_EQ(want.arrivals[i].t50_ps, got.arrivals[i].t50_ps) << what << " sink " << i;
        EXPECT_EQ(want.arrivals[i].slew_ps, got.arrivals[i].slew_ps) << what << " sink " << i;
    }
}

/// source -> 14 single buffers in a chain (one sink tapped off every
/// other link), then a fan-out of 8 buffers driving 2 sinks each. The
/// chain's levels are one stage wide; the last level is eight wide.
circuit::Netlist deep_chain() {
    circuit::Netlist net;
    const int src = net.add_node({0, 0});
    net.set_source(src);
    int at = src;
    double x = 0.0;
    for (int k = 0; k < 14; ++k) {
        x += 400.0;
        const int in = net.add_node({x, 0});
        net.add_wire(at, in, 400.0);
        if (k % 2 == 1)
            net.add_wire(in, net.add_node({x, 150}, 6.0 + k, util::indexed_name("c", k)), 150.0);
        const int out = net.add_node({x, 0});
        net.add_buffer(in, out, k % 3);
        at = out;
    }
    for (int f = 0; f < 8; ++f) {
        const double y = 200.0 * (f + 1);
        const int in = net.add_node({x, y});
        net.add_wire(at, in, y + 30.0 * f);
        const int out = net.add_node({x, y});
        net.add_buffer(in, out, f % 3);
        for (int s = 0; s < 2; ++s) {
            const double len = 200.0 + 350.0 * s + 40.0 * f;
            net.add_wire(out, net.add_node({x + len, y}, 10.0 + 4.0 * s,
                                           util::indexed_name("f", 2 * f + s)),
                         len);
        }
    }
    return net;
}

TEST(NetlistSim, ParallelReportIsStableAndInStageOrder) {
    const circuit::Netlist net = deep_chain();
    sim::NetlistSimOptions opt;
    opt.solver.dt_ps = 1.0;

    std::vector<int> load_order;
    for (const circuit::Stage& st : circuit::decompose(net, tek(), buflib(), opt.decompose))
        for (const circuit::StageLoad& ld : st.loads)
            if (ld.kind == circuit::StageLoad::Kind::sink) load_order.push_back(ld.net_node);
    ASSERT_EQ(load_order.size(), 7u + 16u);

    const sim::NetlistSimReport first = sim::simulate_netlist(net, tek(), buflib(), opt);
    ASSERT_TRUE(first.complete);
    ASSERT_EQ(first.arrivals.size(), load_order.size());
    for (std::size_t i = 0; i < load_order.size(); ++i)
        EXPECT_EQ(first.arrivals[i].net_node, load_order[i]) << "sink " << i;

    for (int run = 1; run < 4; ++run)
        expect_identical(first, sim::simulate_netlist(net, tek(), buflib(), opt),
                         "run " + std::to_string(run));
}

}  // namespace
}  // namespace ctsim::testutil
