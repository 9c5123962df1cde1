// Regenerates the golden-report snapshots under tests/golden/ (the
// `--update-golden` tool of the regression suite). Prints old vs new
// so a quality diff is visible before it is committed.
//
//   build/update_golden [--update-golden] [--dir <golden-dir>]
//
// Without --update-golden it runs in dry-run mode: measures, prints
// the diff and exits 1 if anything drifted, writing nothing.
#include <cstdio>
#include <cstring>
#include <string>

#include "tests/golden_common.h"
#include "tests/sim_golden_common.h"

int main(int argc, char** argv) {
    using namespace ctsim::testutil;
    bool write = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-golden") == 0) {
            write = true;
        } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
            setenv("CTSIM_GOLDEN_DIR", argv[++i], 1);
        } else {
            std::fprintf(stderr, "usage: %s [--update-golden] [--dir <golden-dir>]\n",
                         argv[0]);
            return 2;
        }
    }

    std::printf("golden dir: %s%s\n", golden_dir().c_str(),
                write ? "" : "  (dry run; pass --update-golden to write)");
    bool drift = false;
    for (const GoldenInstance& inst : golden_instances()) {
        const GoldenRecord got = measure_golden(inst);
        GoldenRecord old;
        const bool had = read_golden(inst, old);
        if (had) {
            const bool changed = golden_drifted(got, old);
            drift |= changed;
            std::printf("%-12s wl %12.3f -> %12.3f  skew %7.3f -> %7.3f  bufs %4d -> %4d%s\n",
                        inst.name, old.wirelength_um, got.wirelength_um, old.skew_ps,
                        got.skew_ps, old.buffers, got.buffers,
                        changed ? "  [DRIFT]" : "");
        } else {
            drift = true;
            std::printf("%-12s NEW: wl %.3f skew %.3f bufs %d nodes %d\n", inst.name,
                        got.wirelength_um, got.skew_ps, got.buffers, got.tree_nodes);
        }
        if (write && !write_golden(inst, got)) {
            std::fprintf(stderr, "cannot write %s\n", golden_path(inst).c_str());
            return 2;
        }
    }
    // The exact transient-simulation pin (sim_golden_common.h).
    const std::string sim_text = render_sim_golden();
    const std::optional<std::string> sim_old = read_sim_golden();
    const bool sim_drift = !sim_old || *sim_old != sim_text;
    drift |= sim_drift;
    std::printf("%-12s %s\n", "sim_exact",
                !sim_old ? "NEW" : (sim_drift ? "[DRIFT] not bit-identical" : "bit-identical"));
    if (write && !write_sim_golden(sim_text)) {
        std::fprintf(stderr, "cannot write %s\n", sim_golden_path().c_str());
        return 2;
    }
    if (write) {
        std::printf("snapshots written.\n");
        return 0;
    }
    return drift ? 1 : 0;
}
