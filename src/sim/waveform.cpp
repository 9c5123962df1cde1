#include "sim/waveform.h"

#include <cmath>
#include <numbers>

#include "util/status.h"

namespace ctsim::sim {

namespace {

/// Samples covering `span_ps` at step `dt_ps`, plus two of margin.
int sample_count(double span_ps, double dt_ps) {
    const double n = std::ceil(span_ps / dt_ps);
    if (!(dt_ps > 0.0) || !(n >= 0.0 && n < 1e9))
        util::throw_status(util::Status::invalid_input(
            "waveform: slew and step must give a finite sample count"));
    return static_cast<int>(n) + 2;
}

}  // namespace

Waveform Waveform::ramp(double vdd, double slew_ps, double t_start_ps, double dt_ps) {
    const double ramp_len = slew_ps / 0.8;  // 10-90% occupies 80% of the ramp
    const int n = sample_count(ramp_len, dt_ps);
    std::vector<double> s(n);
    for (int i = 0; i < n; ++i) {
        const double t = i * dt_ps;
        s[i] = t >= ramp_len ? vdd : vdd * t / ramp_len;
    }
    return Waveform(t_start_ps, dt_ps, std::move(s));
}

Waveform Waveform::smooth(double vdd, double slew_ps, double t_start_ps, double dt_ps) {
    // Raised cosine v(t) = vdd/2 (1 - cos(pi t/T)). Its 10-90% window:
    // t10/T = acos(0.8)/pi, t90/T = acos(-0.8)/pi, so
    // slew = T * (acos(-0.8) - acos(0.8)) / pi = T * 0.590334.
    const double frac = (std::acos(-0.8) - std::acos(0.8)) / std::numbers::pi;
    const double total = slew_ps / frac;
    const int n = sample_count(total, dt_ps);
    std::vector<double> s(n);
    for (int i = 0; i < n; ++i) {
        const double t = i * dt_ps;
        s[i] = t >= total ? vdd
                          : vdd / 2.0 * (1.0 - std::cos(std::numbers::pi * t / total));
    }
    return Waveform(t_start_ps, dt_ps, std::move(s));
}

double Waveform::value_at(double t_ps) const {
    if (samples_.empty()) return 0.0;
    const double rel = (t_ps - t0_) / dt_;
    if (rel <= 0.0) return samples_.front();
    const auto idx = static_cast<std::size_t>(rel);
    if (idx + 1 >= samples_.size()) return samples_.back();
    const double frac = rel - static_cast<double>(idx);
    return samples_[idx] + frac * (samples_[idx + 1] - samples_[idx]);
}

std::optional<double> Waveform::crossing_time(double level) const {
    for (std::size_t i = 1; i < samples_.size(); ++i) {
        if (samples_[i - 1] < level && samples_[i] >= level) {
            const double frac = (level - samples_[i - 1]) / (samples_[i] - samples_[i - 1]);
            return t0_ + dt_ * (static_cast<double>(i - 1) + frac);
        }
    }
    return std::nullopt;
}

std::optional<double> Waveform::slew_10_90(double vdd) const {
    const auto a = crossing_time(0.1 * vdd);
    const auto b = crossing_time(0.9 * vdd);
    if (a && b) return *b - *a;
    return std::nullopt;
}

std::optional<double> Waveform::t50(double vdd) const { return crossing_time(0.5 * vdd); }

void CrossingTracker::observe(double t_ps, double v) {
    if (has_prev_) {
        check(0.1 * vdd_, t10_, t_ps, v);
        check(0.5 * vdd_, t50_, t_ps, v);
        check(0.9 * vdd_, t90_, t_ps, v);
    }
    prev_t_ = t_ps;
    prev_v_ = v;
    has_prev_ = true;
}

void CrossingTracker::check(double level, std::optional<double>& slot, double t, double v) {
    if (slot || prev_v_ >= level || v < level) return;
    const double frac = (level - prev_v_) / (v - prev_v_);
    slot = prev_t_ + frac * (t - prev_t_);
}

}  // namespace ctsim::sim
