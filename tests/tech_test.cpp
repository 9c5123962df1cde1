#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tech/buffer_lib.h"
#include "tech/technology.h"

namespace ctsim::tech {
namespace {

class MosModel : public ::testing::Test {
  protected:
    Technology t = Technology::ptm45_aggressive();
};

TEST_F(MosModel, CutoffBelowThreshold) {
    const MosCurrent c = mos_current(t.nmos, 1.0, 0.3, 0.5);
    EXPECT_DOUBLE_EQ(c.id, 0.0);
    EXPECT_DOUBLE_EQ(c.did_dvgs, 0.0);
}

TEST_F(MosModel, CurrentScalesWithWidth) {
    const MosCurrent a = mos_current(t.nmos, 1.0, 1.0, 1.0);
    const MosCurrent b = mos_current(t.nmos, 3.0, 1.0, 1.0);
    EXPECT_NEAR(b.id, 3.0 * a.id, 1e-12);
}

TEST_F(MosModel, OnCurrentMagnitudeIs45nmLike) {
    // ~1 mA/um NMOS on-current at full bias is the 45 nm ballpark.
    const MosCurrent c = mos_current(t.nmos, 1.0, t.vdd, t.vdd);
    EXPECT_GT(c.id, 0.5);
    EXPECT_LT(c.id, 2.0);
}

TEST_F(MosModel, TriodeRegionContinuity) {
    // Value continuity across the vdsat boundary.
    const double vgs = 0.9;
    const double vov = vgs - t.nmos.vt;
    const double vdsat = t.nmos.vdsat_coef * std::pow(vov, t.nmos.alpha / 2.0);
    const MosCurrent below = mos_current(t.nmos, 2.0, vgs, vdsat - 1e-7);
    const MosCurrent above = mos_current(t.nmos, 2.0, vgs, vdsat + 1e-7);
    EXPECT_NEAR(below.id, above.id, 1e-4);
}

TEST_F(MosModel, DerivativesMatchFiniteDifferences) {
    const double vgs = 0.8, vds = 0.2, w = 2.0, eps = 1e-6;
    const MosCurrent c = mos_current(t.nmos, w, vgs, vds);
    const double did_dvgs_fd =
        (mos_current(t.nmos, w, vgs + eps, vds).id - mos_current(t.nmos, w, vgs - eps, vds).id) /
        (2 * eps);
    const double did_dvds_fd =
        (mos_current(t.nmos, w, vgs, vds + eps).id - mos_current(t.nmos, w, vgs, vds - eps).id) /
        (2 * eps);
    EXPECT_NEAR(c.did_dvgs, did_dvgs_fd, 1e-4 * std::abs(did_dvgs_fd) + 1e-9);
    EXPECT_NEAR(c.did_dvds, did_dvds_fd, 1e-4 * std::abs(did_dvds_fd) + 1e-9);
}

TEST_F(MosModel, AntisymmetricInVds) {
    const MosCurrent pos = mos_current(t.nmos, 1.0, 0.9, 0.3);
    const MosCurrent neg = mos_current(t.nmos, 1.0, 0.9, -0.3);
    EXPECT_NEAR(neg.id, -pos.id, 1e-12);
}

// The alpha-power model as one function, the form it had before the
// gate/drain split: the reference the split must reproduce exactly.
MosCurrent unsplit_mos_current(const MosParams& p, double width_um, double vgs, double vds) {
    MosCurrent out;
    double sign = 1.0;
    if (vds < 0.0) {
        sign = -1.0;
        vds = -vds;
    }
    const double vov = vgs - p.vt;
    if (vov <= 0.0) return out;
    const double idsat0 = p.k_ma_per_um * width_um * std::pow(vov, p.alpha);
    const double didsat0_dvgs = p.k_ma_per_um * width_um * p.alpha * std::pow(vov, p.alpha - 1.0);
    const double vdsat = p.vdsat_coef * std::pow(vov, p.alpha / 2.0);
    const double dvdsat_dvgs = p.vdsat_coef * (p.alpha / 2.0) * std::pow(vov, p.alpha / 2.0 - 1.0);
    const double clm = 1.0 + p.lambda * vds;
    if (vds >= vdsat) {
        out.id = idsat0 * clm;
        out.did_dvds = idsat0 * p.lambda;
        out.did_dvgs = didsat0_dvgs * clm;
    } else {
        const double x = vds / vdsat;
        const double shape = x * (2.0 - x);
        out.id = idsat0 * shape * clm;
        out.did_dvds = idsat0 * ((2.0 - 2.0 * x) / vdsat * clm + shape * p.lambda);
        const double dx_dvgs = -(x / vdsat) * dvdsat_dvgs;
        out.did_dvgs = (didsat0_dvgs * shape + idsat0 * (2.0 - 2.0 * x) * dx_dvgs) * clm;
    }
    out.id *= sign;
    out.did_dvgs *= sign;
    return out;
}

// The solver evaluates the gate part once per step and the drain part
// per Newton iterate; the composition, and the four-argument model
// built from it, must equal the unsplit model bit for bit, in every
// region and for both device types.
TEST_F(MosModel, GateDrainSplitIsBitExact) {
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof(double)) == 0;
    };
    for (const MosParams* p : {&t.nmos, &t.pmos}) {
        const double w = p == &t.nmos ? 0.7 : 1.9;
        std::vector<double> vgs_grid = {-0.2, 0.0, p->vt - 1e-9, p->vt, p->vt + 1e-9};
        for (int i = 0; i <= 24; ++i) vgs_grid.push_back(0.05 * i);
        for (const double vgs : vgs_grid) {
            const MosGate g = mos_gate(*p, w, vgs);
            std::vector<double> vds_grid = {-0.6, -1e-12, -0.0, 0.0, 1e-12};
            for (int i = -12; i <= 24; ++i) vds_grid.push_back(0.05 * i);
            if (g.on) {
                for (const double d : {-1e-12, 0.0, 1e-12}) {
                    vds_grid.push_back(g.vdsat + d);   // the triode/saturation boundary
                    vds_grid.push_back(-g.vdsat + d);  // and its mirror
                }
            }
            for (const double vds : vds_grid) {
                const MosCurrent want = unsplit_mos_current(*p, w, vgs, vds);
                for (const MosCurrent& got : {mos_drain(*p, g, vds), mos_current(*p, w, vgs, vds)})
                    EXPECT_TRUE(same(got.id, want.id) && same(got.did_dvgs, want.did_dvgs) &&
                                same(got.did_dvds, want.did_dvds))
                        << (p == &t.nmos ? "nmos" : "pmos") << " vgs " << vgs << " vds " << vds;
            }
        }
    }
}

TEST_F(MosModel, GateTermsOffBelowThreshold) {
    EXPECT_FALSE(mos_gate(t.nmos, 1.0, t.nmos.vt).on);
    const MosGate on = mos_gate(t.pmos, 1.0, t.vdd);
    EXPECT_TRUE(on.on);
    EXPECT_GT(on.idsat0, 0.0);
    EXPECT_GT(on.vdsat, 0.0);
}

TEST(Wire, TenXScaling) {
    const Technology agg = Technology::ptm45_aggressive();
    const Technology nom = Technology::ptm45_nominal();
    EXPECT_NEAR(agg.wire_res_kohm(1000.0), 10.0 * nom.wire_res_kohm(1000.0), 1e-12);
    EXPECT_NEAR(agg.wire_cap_ff(1000.0), 10.0 * nom.wire_cap_ff(1000.0), 1e-12);
    // Paper values: 0.03 Ohm/um and 0.2 fF/um.
    EXPECT_NEAR(agg.wire_res_kohm(1.0) * 1e3, 0.03, 1e-12);
    EXPECT_NEAR(agg.wire_cap_ff(1.0), 0.2, 1e-12);
}

TEST(BufferLib, StandardThreeIsSorted) {
    const Technology t = Technology::ptm45_aggressive();
    const BufferLibrary lib = BufferLibrary::standard_three(t);
    ASSERT_EQ(lib.count(), 3);
    EXPECT_LT(lib.type(0).size, lib.type(1).size);
    EXPECT_LT(lib.type(1).size, lib.type(2).size);
}

TEST(BufferLib, BiggerBufferSmallerOutputResistance) {
    const Technology t = Technology::ptm45_aggressive();
    const BufferLibrary lib = BufferLibrary::standard_three(t);
    EXPECT_GT(lib.type(0).output_res_kohm(t), lib.type(2).output_res_kohm(t));
}

TEST(BufferLib, InputCapGrowsWithSize) {
    const Technology t = Technology::ptm45_aggressive();
    const BufferLibrary lib = BufferLibrary::standard_three(t);
    EXPECT_LT(lib.type(0).input_cap_ff(t), lib.type(2).input_cap_ff(t));
    // Input cap should be a few fF: much less than typical wire loads.
    EXPECT_LT(lib.type(2).input_cap_ff(t), 50.0);
    EXPECT_GT(lib.type(0).input_cap_ff(t), 1.0);
}

}  // namespace
}  // namespace ctsim::tech
