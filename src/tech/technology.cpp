#include "tech/technology.h"

#include <algorithm>
#include <cmath>

namespace ctsim::tech {

MosGate mos_gate(const MosParams& p, double width_um, double vgs) {
    MosGate g;
    const double vov = vgs - p.vt;
    if (vov <= 0.0) return g;  // cut-off: gmin elsewhere keeps Newton regular
    g.on = true;
    g.idsat0 = p.k_ma_per_um * width_um * std::pow(vov, p.alpha);
    g.didsat0_dvgs = p.k_ma_per_um * width_um * p.alpha * std::pow(vov, p.alpha - 1.0);
    g.vdsat = p.vdsat_coef * std::pow(vov, p.alpha / 2.0);
    g.dvdsat_dvgs = p.vdsat_coef * (p.alpha / 2.0) * std::pow(vov, p.alpha / 2.0 - 1.0);
    return g;
}

MosCurrent mos_drain(const MosParams& p, const MosGate& g, double vds) {
    MosCurrent out;
    if (!g.on) return out;
    // Reverse conduction (vds < 0) is handled by antisymmetry; in a
    // correctly biased inverter it only occurs transiently for tiny
    // overshoots, but the solver must stay consistent there.
    double sign = 1.0;
    if (vds < 0.0) {
        sign = -1.0;
        vds = -vds;
    }
    const double clm = 1.0 + p.lambda * vds;  // channel-length modulation
    if (vds >= g.vdsat) {
        out.id = g.idsat0 * clm;
        out.did_dvds = g.idsat0 * p.lambda;
        out.did_dvgs = g.didsat0_dvgs * clm;
    } else {
        // Quadratic triode interpolation: matches value and slope of the
        // saturation branch at vds = vdsat.
        const double x = vds / g.vdsat;
        const double shape = x * (2.0 - x);
        out.id = g.idsat0 * shape * clm;
        out.did_dvds = g.idsat0 * ((2.0 - 2.0 * x) / g.vdsat * clm + shape * p.lambda);
        // d(shape)/dvgs via dx/dvgs = -x/vdsat * dvdsat/dvgs.
        const double dx_dvgs = -(x / g.vdsat) * g.dvdsat_dvgs;
        out.did_dvgs = (g.didsat0_dvgs * shape + g.idsat0 * (2.0 - 2.0 * x) * dx_dvgs) * clm;
    }
    out.id *= sign;
    out.did_dvgs *= sign;
    // did_dvds stays positive under antisymmetry: d(-I(-v))/dv = I'(-v).
    return out;
}

Technology Technology::ptm45_aggressive() {
    Technology t;
    t.vdd = 1.0;
    t.nmos = MosParams{0.40, 1.3, 1.75, 0.42, 0.05, 1.0, 0.5};
    t.pmos = MosParams{0.40, 1.35, 0.90, 0.50, 0.05, 1.0, 0.5};
    t.wire_res_kohm_per_um = 0.03e-3;  // 0.03 Ohm/um (the 10x setting)
    t.wire_cap_ff_per_um = 0.2;        // 0.2 fF/um (the 10x setting)
    return t;
}

Technology Technology::ptm45_nominal() {
    Technology t = ptm45_aggressive();
    t.wire_res_kohm_per_um = 0.003e-3;
    t.wire_cap_ff_per_um = 0.02;
    return t;
}

}  // namespace ctsim::tech
