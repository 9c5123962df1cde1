#include "sim/stage_solver.h"

#include <cmath>
#include <string>

#include "util/status.h"

namespace ctsim::sim {

namespace {

constexpr double kGmin = 1e-9;  // [mA/V] regularization at nonlinear nodes

/// Newton safeguards: the alpha-power device has slope kinks (cutoff,
/// vdsat, the vds = 0 antisymmetry point) that can make a raw Newton
/// iteration cycle on very stiff stages. Limiting the per-iteration
/// step and keeping iterates near the rails forces convergence into
/// the physical region, where the residual is monotone.
constexpr double kMaxNewtonStepV = 0.25;

double newton_clamp(double v, double prev, double vdd) {
    const double step = v - prev;
    if (step > kMaxNewtonStepV) v = prev + kMaxNewtonStepV;
    if (step < -kMaxNewtonStepV) v = prev - kMaxNewtonStepV;
    return std::min(std::max(v, -0.5), vdd + 0.5);
}

/// Solver for the symmetric tree system (D + offdiag) x = rhs. Node 0
/// is the root; node i>0 couples only to parent[i] with entry
/// -theta*g[i]. Only the root diagonal changes between solves, so the
/// non-root pivots are eliminated once, here; `eliminate` folds one
/// step's rhs up to the root's children, `root` solves the remaining
/// 1x1 root row and `back_substitute` fills in the rest. Each sum adds
/// its terms in the order of a full leaf-to-root elimination
/// (descending child index), so results match it bit for bit.
class TreeSolve {
  public:
    TreeSolve(const circuit::RcTree& tree, double c_over_h, double theta)
        : n_(tree.size()), parent_(n_), g_(n_), gth_(n_), pivot_(n_), f_(n_), work_(n_) {
        for (int i = 0; i < n_; ++i) {
            const circuit::RcNode& nd = tree.node(i);
            parent_[i] = nd.parent;
            g_[i] = i == 0 ? 0.0 : 1.0 / nd.res_to_parent_kohm;
            gth_[i] = theta * g_[i];
            pivot_[i] = nd.cap_ff * c_over_h;
        }
        for (int i = 1; i < n_; ++i) {
            pivot_[i] += gth_[i];
            pivot_[parent_[i]] += gth_[i];
        }
        // Children have larger indices, so each pivot is final before
        // it is used. pivot_[0] stays the base root diagonal.
        for (int i = n_ - 1; i >= 1; --i) {
            f_[i] = gth_[i] / pivot_[i];
            if (parent_[i] == 0)
                root_children_.push_back(i);
            else
                pivot_[parent_[i]] -= f_[i] * gth_[i];
        }
    }

    double g(int i) const { return g_[i]; }
    int parent(int i) const { return parent_[i]; }

    /// This step's rhs; `eliminate` transforms it in place.
    std::vector<double>& rhs() { return work_; }

    /// Leaf-to-root elimination of the rhs below the root.
    void eliminate() {
        for (int i = n_ - 1; i >= 1; --i)
            if (parent_[i] != 0) work_[parent_[i]] += f_[i] * work_[i];
    }

    /// Root value when the root row gets extra current `extra_rhs` and
    /// extra diagonal conductance `extra_diag`.
    double root(double extra_rhs, double extra_diag) const {
        double d = pivot_[0] + extra_diag;
        double w = work_[0] + extra_rhs;
        for (const int c : root_children_) {
            d -= f_[c] * gth_[c];
            w += f_[c] * work_[c];
        }
        return w / d;
    }

    void back_substitute(double x0, std::vector<double>& x) const {
        x[0] = x0;
        for (int i = 1; i < n_; ++i) x[i] = (work_[i] + gth_[i] * x[parent_[i]]) / pivot_[i];
    }

  private:
    int n_;
    std::vector<int> parent_;
    std::vector<double> g_;
    std::vector<double> gth_;
    std::vector<double> pivot_;  ///< eliminated diagonal, except the root's
    std::vector<double> f_;      ///< elimination factor gth[i] / pivot[i]
    std::vector<double> work_;   ///< this step's rhs, eliminated below the root
    std::vector<int> root_children_;  ///< in descending index order
};

/// An inverter whose input voltage is fixed for the current step: the
/// gate terms of both devices are evaluated once, and only the drain
/// part runs per Newton iterate of the output voltage.
struct InverterGate {
    tech::MosGate n;
    tech::MosGate p;
};

InverterGate inverter_gate(const tech::Technology& t, const tech::InverterGeom& g, double vin) {
    return {tech::mos_gate(t.nmos, g.nmos_width_um, vin),
            tech::mos_gate(t.pmos, g.pmos_width_um, t.vdd - vin)};
}

InverterEval inverter_current(const tech::Technology& t, const InverterGate& g, double vout) {
    const tech::MosCurrent n = tech::mos_drain(t.nmos, g.n, vout);
    const tech::MosCurrent p = tech::mos_drain(t.pmos, g.p, t.vdd - vout);
    InverterEval e;
    e.i_out_ma = p.id - n.id;
    e.di_dvout = -p.did_dvds - n.did_dvds;
    return e;
}

}  // namespace

InverterEval inverter_current(const tech::Technology& t, const tech::InverterGeom& g,
                              double vin, double vout) {
    return inverter_current(t, inverter_gate(t, g, vin), vout);
}

void SolverOptions::validate() const {
    const auto bad = [](const char* what) {
        util::throw_status(util::Status::invalid_input(std::string("solver options: ") + what));
    };
    if (!std::isfinite(dt_ps) || dt_ps <= 0.0) bad("dt_ps must be finite and > 0");
    if (!(theta > 0.0 && theta <= 1.0)) bad("theta must be in (0, 1]");
    if (!(max_window_ps > 0.0)) bad("max_window_ps must be > 0");
    if (max_newton_iters < 1) bad("max_newton_iters must be >= 1");
}

StageResult simulate_stage(const circuit::RcTree& tree, const tech::BufferType* driver,
                           const Waveform& input, const std::vector<int>& taps,
                           const tech::Technology& tech, const SolverOptions& opt) {
    opt.validate();
    const int n = tree.size();
    const double h = opt.dt_ps;
    const double theta = opt.theta;
    const double c_over_h = 1.0 / h;
    TreeSolve solver(tree, c_over_h, theta);

    // Initial conditions: everything low; buffer internal node high.
    std::vector<double> v(n, 0.0), v_next(n, 0.0);
    double vm = driver ? tech.vdd : 0.0;  // internal (between inverters) node
    const double cm = driver ? driver->internal_cap_ff(tech) : 0.0;

    const double t_start = input.t0();
    double t = t_start;

    std::vector<CrossingTracker> trackers(n, CrossingTracker(tech.vdd));
    CrossingTracker internal_tracker(tech.vdd);
    std::vector<std::vector<double>> tap_samples(taps.size());

    std::vector<double> gv(n);
    std::vector<double>& rhs = solver.rhs();

    StageResult out;
    out.node_timing.resize(n);

    const auto record = [&](double tt) {
        for (int i = 0; i < n; ++i) trackers[i].observe(tt, v[i]);
        if (driver) internal_tracker.observe(tt, tech.vdd - vm);  // falling -> mirror
        for (std::size_t k = 0; k < taps.size(); ++k) tap_samples[k].push_back(v[taps[k]]);
    };
    record(t);

    double settled_since = -1.0;
    const double t_hard_end = t_start + opt.max_window_ps;
    while (t < t_hard_end) {
        const double t_new = t + h;
        const double vin_new = input.value_at(t_new);

        double vm_new = vm;
        if (driver) {
            // Stage-1 inverter drives only the internal cap. Backward
            // Euler + scalar Newton: (cm/h)(v'-v) = i1(vin', v').
            const InverterGate g1 = inverter_gate(tech, driver->stage1, vin_new);
            for (int it = 0; it < opt.max_newton_iters; ++it) {
                const InverterEval e1 = inverter_current(tech, g1, vm_new);
                const double f =
                    c_over_h * cm * (vm_new - vm) - e1.i_out_ma + kGmin * vm_new;
                const double fp = c_over_h * cm - e1.di_dvout + kGmin;
                const double prev = vm_new;
                vm_new = newton_clamp(vm_new - f / fp, prev, tech.vdd);
                if (std::abs(vm_new - prev) < opt.newton_tol_v) break;
            }
        }

        // Base RHS: (C/h) v - (1-theta) G v.
        std::fill(gv.begin(), gv.end(), 0.0);
        for (int i = 1; i < n; ++i) {
            const double d = solver.g(i) * (v[i] - v[solver.parent(i)]);
            gv[i] += d;
            gv[solver.parent(i)] -= d;
        }
        for (int i = 0; i < n; ++i)
            rhs[i] = c_over_h * tree.node(i).cap_ff * v[i] - (1.0 - theta) * gv[i];

        solver.eliminate();
        if (!driver) {
            // Ideal source: root voltage prescribed at t_new.
            solver.back_substitute(vin_new, v_next);
        } else {
            // Scalar Newton on the root, the only node the stage-2
            // device touches (backward Euler on the device current).
            const InverterGate g2 = inverter_gate(tech, driver->stage2, vm_new);
            const auto root_solve = [&](double v0) {
                const InverterEval e2 = inverter_current(tech, g2, v0);
                return solver.root(e2.i_out_ma + (-e2.di_dvout) * v0, -e2.di_dvout + kGmin);
            };
            double v0 = v[0];
            for (int it = 0; it < opt.max_newton_iters; ++it) {
                const double prev = v0;
                v0 = newton_clamp(root_solve(v0), prev, tech.vdd);
                if (std::abs(v0 - prev) < opt.newton_tol_v) break;
            }
            // Solve the tree consistently with the converged root
            // linearization.
            solver.back_substitute(root_solve(v0), v_next);
        }

        v.swap(v_next);
        vm = vm_new;
        t = t_new;
        record(t);

        // Stop once the input has finished and every node has settled.
        if (t >= input.t_end()) {
            bool all_settled = true;
            for (int i = 0; i < n && all_settled; ++i)
                if (v[i] < opt.settle_v_frac * tech.vdd) all_settled = false;
            if (all_settled) {
                if (settled_since < 0.0) settled_since = t;
                if (t - settled_since >= opt.tail_ps) {
                    out.settled = true;
                    break;
                }
            } else {
                settled_since = -1.0;
            }
        }
    }

    for (int i = 0; i < n; ++i)
        out.node_timing[i] = NodeTiming{trackers[i].t10(), trackers[i].t50(), trackers[i].t90()};
    out.internal_node =
        NodeTiming{internal_tracker.t10(), internal_tracker.t50(), internal_tracker.t90()};
    out.tap_waveforms.reserve(taps.size());
    for (std::size_t k = 0; k < taps.size(); ++k)
        out.tap_waveforms.emplace_back(t_start, h, std::move(tap_samples[k]));
    return out;
}

}  // namespace ctsim::sim
