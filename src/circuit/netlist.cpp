#include "circuit/netlist.h"

#include <queue>
#include <stdexcept>
#include <utility>

#include "util/status.h"

namespace ctsim::circuit {

namespace {

[[noreturn]] void reject(std::string message) {
    util::throw_status(util::Status::invalid_input(std::move(message)));
}

}  // namespace

int Netlist::add_node(geom::Pt pos, double sink_cap_ff, std::string name) {
    nodes_.push_back(NetNode{pos, sink_cap_ff, std::move(name)});
    return node_count() - 1;
}

void Netlist::add_wire(int a, int b, double length_um) {
    if (a < 0 || a >= node_count() || b < 0 || b >= node_count())
        throw std::out_of_range("Netlist: wire endpoint out of range");
    if (length_um < 0.0) throw std::invalid_argument("Netlist: negative wire length");
    wires_.push_back(WireSeg{a, b, length_um});
}

void Netlist::add_buffer(int in_node, int out_node, int type) {
    if (in_node < 0 || in_node >= node_count() || out_node < 0 || out_node >= node_count())
        throw std::out_of_range("Netlist: buffer terminal out of range");
    buffers_.push_back(BufferInst{in_node, out_node, type});
}

std::vector<int> Netlist::sink_nodes() const {
    std::vector<int> out;
    for (int i = 0; i < node_count(); ++i)
        if (nodes_[i].sink_cap_ff > 0.0) out.push_back(i);
    return out;
}

double Netlist::total_wire_length_um() const {
    double sum = 0.0;
    for (const WireSeg& w : wires_) sum += w.length_um;
    return sum;
}

void Netlist::validate() const {
    if (source_ < 0 || source_ >= node_count())
        reject("netlist: missing or invalid source node");

    // Adjacency over wires and (directed) over buffers.
    std::vector<std::vector<int>> wire_adj(node_count());
    for (const WireSeg& w : wires_) {
        wire_adj[w.a].push_back(w.b);
        wire_adj[w.b].push_back(w.a);
    }
    std::vector<std::vector<int>> buf_out(node_count());
    for (const BufferInst& b : buffers_) buf_out[b.in_node].push_back(b.out_node);

    // BFS from the source through wires and buffers.
    std::vector<char> seen(node_count(), 0);
    std::vector<int> parent(node_count(), -1);
    std::queue<int> q;
    q.push(source_);
    seen[source_] = 1;
    while (!q.empty()) {
        const int u = q.front();
        q.pop();
        for (int v : wire_adj[u]) {
            if (!seen[v]) {
                seen[v] = 1;
                parent[v] = u;
                q.push(v);
            } else if (v != parent[u]) {
                // A wire back to an already-seen node that is not our
                // BFS parent closes a cycle in the wire graph.
                reject("netlist: wire cycle detected near node " + std::to_string(v));
            }
        }
        for (int v : buf_out[u]) {
            if (seen[v])
                reject("netlist: buffer output re-enters visited net at node " +
                       std::to_string(v));
            seen[v] = 1;
            parent[v] = u;
            q.push(v);
        }
    }

    for (int i = 0; i < node_count(); ++i)
        if (nodes_[i].sink_cap_ff > 0.0 && !seen[i])
            reject("netlist: sink unreachable from source: " + std::to_string(i));
    for (const BufferInst& b : buffers_)
        if (!seen[b.in_node])
            reject("netlist: dangling buffer at node " + std::to_string(b.in_node));
}

}  // namespace ctsim::circuit
