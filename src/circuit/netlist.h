// Flat netlist of an entire buffered clock tree.
//
// This is the exchange format between the CTS algorithms and the
// verification tools: a set of electrical nodes connected by wire
// segments (uniform RC) and buffer instances. The stage decomposition
// (stages.h) cuts this netlist at buffer boundaries into RcTree
// components for simulation and timing analysis; spice_writer.h emits
// it as a SPICE deck for users who have real model cards.
#ifndef CTSIM_CIRCUIT_NETLIST_H
#define CTSIM_CIRCUIT_NETLIST_H

#include <string>
#include <vector>

#include "geom/point.h"
#include "tech/buffer_lib.h"
#include "tech/technology.h"

namespace ctsim::circuit {

/// Electrical node. `sink_cap_ff` > 0 marks a clock sink.
struct NetNode {
    geom::Pt pos{};
    double sink_cap_ff{0.0};
    std::string name;  ///< optional (sinks keep their benchmark names)
};

/// Uniform wire between two nodes; the electrical length may exceed
/// the Manhattan distance (wire snaking is legitimate in CTS).
struct WireSeg {
    int a{-1};
    int b{-1};
    double length_um{0.0};
};

/// Buffer instance: input gate node -> output drive node.
struct BufferInst {
    int in_node{-1};
    int out_node{-1};
    int type{0};  ///< index into the BufferLibrary
};

class Netlist {
  public:
    int add_node(geom::Pt pos, double sink_cap_ff = 0.0, std::string name = {});
    void add_wire(int a, int b, double length_um);
    void add_buffer(int in_node, int out_node, int type);

    void set_source(int node) { source_ = node; }
    int source() const { return source_; }

    int node_count() const { return static_cast<int>(nodes_.size()); }
    const NetNode& node(int i) const { return nodes_.at(i); }
    const std::vector<NetNode>& nodes() const { return nodes_; }
    const std::vector<WireSeg>& wires() const { return wires_; }
    const std::vector<BufferInst>& buffers() const { return buffers_; }

    std::vector<int> sink_nodes() const;

    double total_wire_length_um() const;

    /// Structural validation: connected from the source, wires form a
    /// tree (no loops), every buffer input is reachable, every sink is
    /// reached. Throws util::Error (invalid_input) describing the first
    /// defect.
    void validate() const;

  private:
    std::vector<NetNode> nodes_;
    std::vector<WireSeg> wires_;
    std::vector<BufferInst> buffers_;
    int source_{-1};
};

}  // namespace ctsim::circuit

#endif  // CTSIM_CIRCUIT_NETLIST_H
