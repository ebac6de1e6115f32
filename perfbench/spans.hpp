// Host-time spans for the benchmark's traced run.
//
// The benchmark opens a span around every call it makes into a simulator
// layer (machine construction, task-graph build, run(), stats collection,
// the per-layer kernels). Each span keeps its name, start and end in host
// microseconds since the tracer was created, the span that was open when it
// began (its parent) and the id of the simulation run it belongs to. Spans
// stay in memory and are written out once, when the benchmark ends. A null
// Tracer pointer turns every ScopedSpan into a no-op, which is how the
// untraced run measures the end-to-end metrics.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int run = -1;     ///< simulation run id; -1 for work outside any run
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    double start_us = 0.0;
    double end_us = 0.0;
  };

  int begin(std::string name, int run) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), run, parent, now_us(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Self time (duration minus the time covered by direct children), in
  /// milliseconds, summed per span name over spans whose run id lies in
  /// [first_run, end_run).
  std::map<std::string, double> self_ms(int first_run, int end_run) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0)
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.run < first_run || s.run >= end_run) continue;
      out[s.name] += (s.end_us - s.start_us - child_us[i]) / 1e3;
    }
    return out;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"schema\":\"tdn-perfbench-spans-v1\",\"spans\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"run\":%d,\"parent\":%d,"
                   "\"start_us\":%.3f,\"end_us\":%.3f}",
                   i == 0 ? "" : ",", i, s.name.c_str(), s.run, s.parent,
                   s.start_us, s.end_us);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int run)
      : t_(t), id_(t != nullptr ? t->begin(name, run) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
