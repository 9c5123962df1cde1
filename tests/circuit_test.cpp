#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "circuit/netlist.h"
#include "circuit/rc_tree.h"
#include "circuit/spice_writer.h"
#include "circuit/stages.h"
#include "util/status.h"

namespace ctsim::circuit {
namespace {

tech::Technology tek() { return tech::Technology::ptm45_aggressive(); }

TEST(RcTree, WireExpansionConservesRC) {
    RcTree t;
    const tech::Technology tk = tek();
    const int end = t.add_wire(0, 1000.0, tk.wire_res_kohm_per_um, tk.wire_cap_ff_per_um, 20);
    EXPECT_EQ(end, 20);
    EXPECT_NEAR(t.total_cap_ff(), tk.wire_cap_ff(1000.0), 1e-9);
    double rsum = 0.0;
    for (int i = 1; i < t.size(); ++i) rsum += t.node(i).res_to_parent_kohm;
    EXPECT_NEAR(rsum, tk.wire_res_kohm(1000.0), 1e-9);
}

TEST(RcTree, ParentIndexInvariant) {
    RcTree t;
    const int a = t.add_node(0, 1.0, 2.0);
    const int b = t.add_node(a, 1.0, 2.0);
    t.add_node(a, 1.0, 2.0);
    for (int i = 1; i < t.size(); ++i) EXPECT_LT(t.node(i).parent, i);
    EXPECT_EQ(t.node(b).parent, a);
}

TEST(RcTree, RejectsBadParent) {
    RcTree t;
    EXPECT_THROW(t.add_node(5, 1.0, 1.0), std::out_of_range);
    EXPECT_THROW(t.add_node(0, -1.0, 1.0), std::invalid_argument);
}

class NetlistFixture : public ::testing::Test {
  protected:
    // source --wire--> mid --buffer--> bufout --wire--> sink
    void build() {
        src = net.add_node({0, 0});
        mid = net.add_node({500, 0});
        bufout = net.add_node({500, 0});
        sink = net.add_node({1000, 0}, 12.0, "s0");
        net.add_wire(src, mid, 500.0);
        net.add_buffer(mid, bufout, 0);
        net.add_wire(bufout, sink, 500.0);
        net.set_source(src);
    }
    Netlist net;
    int src{-1}, mid{-1}, bufout{-1}, sink{-1};
};

/// The StatusCode `fn` throws as a util::Error; `ok` if it does not.
template <class F>
util::StatusCode thrown_code(F&& fn) {
    try {
        fn();
    } catch (const util::Error& e) {
        return e.status().code();
    }
    return util::StatusCode::ok;
}

TEST_F(NetlistFixture, ValidatesCleanTree) {
    build();
    EXPECT_NO_THROW(net.validate());
    EXPECT_EQ(net.sink_nodes().size(), 1u);
    EXPECT_DOUBLE_EQ(net.total_wire_length_um(), 1000.0);
}

TEST_F(NetlistFixture, DetectsWireCycle) {
    build();
    net.add_wire(src, sink, 100.0);  // closes a loop through the buffer? no: wire loop src..sink
    EXPECT_THROW(net.validate(), std::runtime_error);
    EXPECT_EQ(thrown_code([&] { net.validate(); }), util::StatusCode::invalid_input);
}

TEST_F(NetlistFixture, DetectsMissingSource) {
    build();
    Netlist empty;
    empty.add_node({0, 0}, 5.0);
    EXPECT_THROW(empty.validate(), std::runtime_error);
    EXPECT_EQ(thrown_code([&] { empty.validate(); }), util::StatusCode::invalid_input);
}

TEST_F(NetlistFixture, DetectsUnreachableSink) {
    build();
    net.add_node({9, 9}, 3.0, "lost");
    EXPECT_THROW(net.validate(), std::runtime_error);
    EXPECT_EQ(thrown_code([&] { net.validate(); }), util::StatusCode::invalid_input);
}

TEST_F(NetlistFixture, DetectsBufferReenteringItsNetAndDanglingBuffer) {
    build();
    Netlist reenter = net;
    reenter.add_buffer(bufout, mid, 0);  // output back onto the source net
    EXPECT_EQ(thrown_code([&] { reenter.validate(); }), util::StatusCode::invalid_input);
    const int far = net.add_node({7, 7});
    net.add_buffer(far, net.add_node({7, 7}), 0);
    EXPECT_EQ(thrown_code([&] { net.validate(); }), util::StatusCode::invalid_input);
}

TEST_F(NetlistFixture, DecomposeRejectsNodeDrivenTwice) {
    build();
    net.add_buffer(mid, bufout, 1);  // a second buffer onto the same output
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    try {
        decompose(net, tk, lib);
        ADD_FAILURE() << "node driven twice accepted";
    } catch (const util::Error& e) {
        EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input);
        EXPECT_NE(std::string(e.what()).find("node driven twice"), std::string::npos);
    }
}

TEST_F(NetlistFixture, StageDecompositionSplitsAtBuffer) {
    build();
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    const auto stages = decompose(net, tk, lib);
    ASSERT_EQ(stages.size(), 2u);

    EXPECT_EQ(stages[0].driver_buffer, -1);
    ASSERT_EQ(stages[0].loads.size(), 1u);
    EXPECT_EQ(stages[0].loads[0].kind, StageLoad::Kind::buffer_input);

    EXPECT_EQ(stages[1].driver_buffer, 0);
    ASSERT_EQ(stages[1].loads.size(), 1u);
    EXPECT_EQ(stages[1].loads[0].kind, StageLoad::Kind::sink);
    EXPECT_EQ(stages[1].loads[0].net_node, sink);

    // First stage carries the wire cap plus the buffer's input gate cap.
    const double expect_cap =
        tk.wire_cap_ff(500.0) + lib.type(0).input_cap_ff(tk);
    EXPECT_NEAR(stages[0].tree.total_cap_ff(), expect_cap, 1e-9);

    // Second stage: wire + sink cap + driver output (drain) cap.
    const double expect_cap2 =
        tk.wire_cap_ff(500.0) + 12.0 + lib.type(0).output_cap_ff(tk);
    EXPECT_NEAR(stages[1].tree.total_cap_ff(), expect_cap2, 1e-9);
}

TEST_F(NetlistFixture, SpiceExportContainsStructure) {
    build();
    const tech::Technology tk = tek();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    std::ostringstream os;
    write_spice(os, net, tk, lib);
    const std::string deck = os.str();
    EXPECT_NE(deck.find(".subckt BUF10X"), std::string::npos);
    EXPECT_NE(deck.find("xb0"), std::string::npos);
    EXPECT_NE(deck.find(".tran"), std::string::npos);
    EXPECT_NE(deck.find("csink"), std::string::npos);
}

}  // namespace
}  // namespace ctsim::circuit
