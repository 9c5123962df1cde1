// In-memory span and counter recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions; nothing inside the library is touched.
// They stay in memory and are written once, as Chrome trace-event
// JSON (chrome://tracing, ui.perfetto.dev), when the run ends. A span
// names its parent, so a layer's self time is its duration minus the
// part of it that its child spans cover.
#ifndef CTSIM_PERFBENCH_TRACE_H
#define CTSIM_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

class Trace {
  public:
    struct Span {
        std::string name;
        Clock::time_point start{};
        Clock::time_point end{};
        int parent{-1};
        int lane{0};       ///< Chrome "tid": 0 = benchmark thread, 1+ = requests
        std::string args;  ///< JSON object body, without braces
    };

    explicit Trace(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }

    /// Open a span; returns its id (-1 when tracing is off).
    int begin(const std::string& name, int parent = -1, std::string args = {}) {
        if (!on_) return -1;
        spans_.push_back({name, Clock::now(), {}, parent, 0, std::move(args)});
        return static_cast<int>(spans_.size()) - 1;
    }
    void end(int id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
    }
    /// Record a finished span whose interval was measured elsewhere.
    int add(const std::string& name, Clock::time_point start, Clock::time_point end,
            int parent, int lane, std::string args = {}) {
        if (!on_) return -1;
        spans_.push_back({name, start, end, parent, lane, std::move(args)});
        return static_cast<int>(spans_.size()) - 1;
    }
    void counter(const std::string& name, double value) {
        if (on_) counters_.push_back({name, Clock::now(), value});
    }

    /// Self time [s] per span name: each span's duration minus the
    /// union of its children's intervals, summed over spans.
    std::map<std::string, double> self_seconds() const {
        std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> kids(
            spans_.size());
        for (const Span& s : spans_)
            if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto& iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0;
            Clock::time_point reach = spans_[i].start;
            for (const auto& [a, b] : iv) {
                const Clock::time_point lo = std::max(a, reach);
                const Clock::time_point hi = std::min(b, spans_[i].end);
                if (hi > lo) covered += seconds_between(lo, hi);
                reach = std::max(reach, b);
            }
            out[spans_[i].name] += seconds_between(spans_[i].start, spans_[i].end) - covered;
        }
        return out;
    }

    bool write(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        bool first = true;
        const auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_).count();
        };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                         "\"parent\":%d%s%s}}",
                         first ? "" : ",\n", s.name.c_str(), layer_of(s.name).c_str(), s.lane,
                         us(s.start), us(s.end) - us(s.start), i, s.parent,
                         s.args.empty() ? "" : ",", s.args.c_str());
            first = false;
        }
        for (const CounterEvent& c : counters_) {
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                         "\"args\":{\"value\":%.17g}}",
                         first ? "" : ",\n", c.name.c_str(), us(c.at), c.value);
            first = false;
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

    std::size_t span_count() const { return spans_.size(); }
    int count(const std::string& name) const {
        return static_cast<int>(std::count_if(spans_.begin(), spans_.end(),
                                              [&](const Span& s) { return s.name == name; }));
    }

  private:
    struct CounterEvent {
        std::string name;
        Clock::time_point at;
        double value;
    };

    /// Category = the span name up to its last '.', e.g. "cts" for
    /// "cts.synthesize".
    static std::string layer_of(const std::string& name) {
        const auto dot = name.rfind('.');
        return dot == std::string::npos ? name : name.substr(0, dot);
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<CounterEvent> counters_;
};

/// RAII span on the benchmark thread.
class ScopedSpan {
  public:
    ScopedSpan(Trace& t, const std::string& name, int parent = -1, std::string args = {})
        : t_(t), id_(t.begin(name, parent, std::move(args))) {}
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Trace& t_;
    int id_;
};

}  // namespace perfbench

#endif  // CTSIM_PERFBENCH_TRACE_H
