#include "circuit/stages.h"

#include <cmath>
#include <queue>

#include "util/status.h"

namespace ctsim::circuit {

namespace {

struct WireRef {
    int other;
    double length_um;
};

}  // namespace

std::vector<Stage> decompose(const Netlist& net, const tech::Technology& tech,
                             const tech::BufferLibrary& lib, const DecomposeOptions& opt) {
    const int n = net.node_count();
    std::vector<std::vector<WireRef>> adj(n);
    for (const WireSeg& w : net.wires()) {
        adj[w.a].push_back({w.b, w.length_um});
        adj[w.b].push_back({w.a, w.length_um});
    }
    // Buffers indexed by their input node.
    std::vector<std::vector<int>> buf_at(n);
    for (std::size_t i = 0; i < net.buffers().size(); ++i)
        buf_at[net.buffers()[i].in_node].push_back(static_cast<int>(i));

    std::vector<Stage> stages;
    // Work queue of stage roots: (driver buffer index, root net node).
    std::queue<std::pair<int, int>> roots;
    roots.emplace(-1, net.source());

    std::vector<char> stage_done(n, 0);  // net nodes already used as a stage root

    while (!roots.empty()) {
        const auto [driver, root] = roots.front();
        roots.pop();
        if (stage_done[root])
            util::throw_status(util::Status::invalid_input(
                "stage decomposition: node driven twice: " + std::to_string(root)));
        stage_done[root] = 1;

        Stage st;
        st.driver_buffer = driver;
        st.root_net_node = root;
        st.tree.set_tag(0, root);
        if (driver >= 0) {
            // Drain cap of the driving buffer's output stage sits on the root.
            const tech::BufferType& bt = lib.type(net.buffers()[driver].type);
            st.tree.add_cap(0, bt.output_cap_ff(tech));
        }

        // BFS through wires only; buffers terminate the stage.
        std::vector<char> visited(n, 0);
        visited[root] = 1;
        std::queue<std::pair<int, int>> q;  // (net node, rc node)
        q.emplace(root, 0);

        const auto attach_loads = [&](int net_node, int rc_node) {
            if (net.node(net_node).sink_cap_ff > 0.0) {
                st.tree.add_cap(rc_node, net.node(net_node).sink_cap_ff);
                st.loads.push_back({StageLoad::Kind::sink, net_node, rc_node, -1});
            }
            for (int bi : buf_at[net_node]) {
                const tech::BufferType& bt = lib.type(net.buffers()[bi].type);
                st.tree.add_cap(rc_node, bt.input_cap_ff(tech));
                st.loads.push_back({StageLoad::Kind::buffer_input, net_node, rc_node, bi});
                roots.emplace(bi, net.buffers()[bi].out_node);
            }
        };

        attach_loads(root, 0);
        while (!q.empty()) {
            const auto [u, rc_u] = q.front();
            q.pop();
            for (const WireRef& wr : adj[u]) {
                if (visited[wr.other]) continue;
                visited[wr.other] = 1;
                const int segs =
                    std::max(opt.min_segments_per_wire,
                             static_cast<int>(std::ceil(wr.length_um / opt.max_segment_um)));
                int rc_v = st.tree.add_wire(rc_u, wr.length_um, tech.wire_res_kohm_per_um,
                                            tech.wire_cap_ff_per_um, segs);
                if (wr.length_um <= 0.0) {
                    // Zero-length connector: create a distinct rc node so
                    // the tag still maps, with negligible resistance.
                    rc_v = st.tree.add_node(rc_u, 1e-12, 0.0);
                }
                st.tree.set_tag(rc_v, wr.other);
                attach_loads(wr.other, rc_v);
                q.emplace(wr.other, rc_v);
            }
        }
        stages.push_back(std::move(st));
    }
    return stages;
}

}  // namespace ctsim::circuit
