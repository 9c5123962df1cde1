// Technology parameters: the 45 nm PTM substitute.
//
// The paper characterizes buffers "defined in transistor level using
// SPICE" with 45 nm PTM models, and wires with unit resistance
// 0.03 Ohm/um and unit capacitance 0.2 fF/um (deliberately 10x the
// GSRC benchmark values to stress slew). PTM model cards are not
// redistributable here, so we provide an alpha-power-law MOSFET model
// (Sakurai-Newton) with magnitudes calibrated to a 45 nm-like process:
// Vdd 1.0 V, ~1 mA/um NMOS on-current, ~1 fF/um gate capacitance.
// The transient simulator (src/sim) evaluates these devices directly.
//
// Internal unit system (consistent, no hidden conversion factors):
//   time ps, capacitance fF, resistance kOhm, current mA, voltage V.
//   kOhm * fF = ps and mA = fF * V / ps, so RC and C dV/dt work out.
#ifndef CTSIM_TECH_TECHNOLOGY_H
#define CTSIM_TECH_TECHNOLOGY_H

namespace ctsim::tech {

/// Alpha-power-law MOSFET parameters, per micrometre of gate width.
struct MosParams {
    double vt{0.4};             ///< threshold voltage [V]
    double alpha{1.3};          ///< velocity-saturation index
    double k_ma_per_um{1.75};   ///< Id_sat = k * W * (Vgs - Vt)^alpha [mA]
    double vdsat_coef{0.42};    ///< Vd_sat = coef * (Vgs - Vt)^(alpha/2) [V]
    double lambda{0.05};        ///< channel-length modulation [1/V]
    double cgate_ff_per_um{1.0};   ///< gate capacitance [fF/um width]
    double cdrain_ff_per_um{0.5};  ///< drain junction capacitance [fF/um width]
};

/// Drain current of a single device and its partial derivatives,
/// evaluated with source grounded (NMOS convention). PMOS devices are
/// evaluated through the same function with mirrored terminal voltages.
struct MosCurrent {
    double id{0.0};        ///< drain->source current [mA]
    double did_dvgs{0.0};  ///< [mA/V]
    double did_dvds{0.0};  ///< [mA/V]
};

/// The gate-voltage part of the device model: the four power-law
/// terms at one vgs. A Newton loop on the drain voltage with the gate
/// held fixed evaluates this once and only `mos_drain` per iterate.
struct MosGate {
    bool on{false};             ///< vgs above threshold
    double idsat0{0.0};         ///< k W vov^alpha [mA]
    double didsat0_dvgs{0.0};   ///< [mA/V]
    double vdsat{0.0};          ///< [V]
    double dvdsat_dvgs{0.0};
};

MosGate mos_gate(const MosParams& p, double width_um, double vgs);
MosCurrent mos_drain(const MosParams& p, const MosGate& g, double vds);

inline MosCurrent mos_current(const MosParams& p, double width_um, double vgs, double vds) {
    return mos_drain(p, mos_gate(p, width_um, vgs), vds);
}

/// Full process + interconnect description.
struct Technology {
    double vdd{1.0};  ///< supply voltage [V]

    MosParams nmos{};
    MosParams pmos{};

    /// Unit wire parasitics. The paper's experimental setting uses the
    /// "10x" values (0.03 Ohm/um, 0.2 fF/um).
    double wire_res_kohm_per_um{0.03e-3};
    double wire_cap_ff_per_um{0.2};

    /// Inverter P/N width ratio (beta ratio) used when deriving buffer
    /// transistor widths from a drive-strength multiple.
    double beta_ratio{2.0};
    /// NMOS width of a 1X inverter [um].
    double unit_nmos_width_um{0.5};

    double wire_res_kohm(double length_um) const { return wire_res_kohm_per_um * length_um; }
    double wire_cap_ff(double length_um) const { return wire_cap_ff_per_um * length_um; }

    /// The paper's experimental technology: 45 nm-like devices with
    /// 10x-scaled wire parasitics.
    static Technology ptm45_aggressive();
    /// Same devices with the original (1x) GSRC wire parasitics;
    /// used by ablation benches to show why the 10x setting matters.
    static Technology ptm45_nominal();
};

}  // namespace ctsim::tech

#endif  // CTSIM_TECH_TECHNOLOGY_H
