// Exactness pin for the transient solver: the rendered stage timings
// and the GSRC r1 signoff must equal tests/golden/sim_exact.golden
// character for character (every double is printed with %.17g, so
// this is bit-for-bit equality). See sim_golden_common.h.
#include <gtest/gtest.h>

#include <sstream>

#include "sim_golden_common.h"

namespace ctsim::testutil {
namespace {

TEST(SimGolden, MatchesBitForBit) {
    const std::optional<std::string> want = read_sim_golden();
    ASSERT_TRUE(want.has_value()) << "missing " << sim_golden_path()
                                  << " -- regenerate with build/update_golden --update-golden";
    const std::string got = render_sim_golden();
    std::istringstream a(got), b(*want);
    std::string la, lb;
    int line = 0;
    while (true) {
        const bool ha = static_cast<bool>(std::getline(a, la));
        const bool hb = static_cast<bool>(std::getline(b, lb));
        ++line;
        if (!ha && !hb) break;
        ASSERT_EQ(la, lb) << sim_golden_path() << ":" << line << ": simulation drifted";
        ASSERT_EQ(ha, hb) << sim_golden_path() << ":" << line << ": line count differs";
    }
}

}  // namespace
}  // namespace ctsim::testutil
