// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions (nothing inside the library is instrumented). Each span
// has a name, start and end (seconds since the recorder was created), the
// index of its parent span, and a repetition id shared by every span of one
// repetition. Spans stay in memory and are written out once, at exit.
//
// Self time of a span is its duration minus the time its direct children
// cover. A span may be given synthetic children that carry only a duration
// (AddChild): that is how Run() is split by the phase timers it reports,
// since the benchmark cannot observe the phases from outside.
//
// A disabled or paused recorder records nothing, so untraced work pays one
// branch per call. Paused time is not traced wall time: leaf coverage is
// measured against the recorder's lifetime minus its paused stretches.

#ifndef CLUSEQ_PERFBENCH_SPANS_H_
#define CLUSEQ_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int32_t parent = -1;
  uint32_t rep = 0;
  double duration() const { return end - start; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Adds a closed child of the innermost open span that covers `seconds`,
  /// placed right after the synthetic children added before it.
  void AddChild(std::string_view name, double seconds) {
    if (!enabled_ || paused_ || open_.empty()) return;
    const int32_t parent = open_.back();
    double start = spans_[parent].start;
    for (const Span& s : spans_) {
      if (s.parent == parent && s.end > start) start = s.end;
    }
    Span span;
    span.name = std::string(name);
    span.start = start;
    span.end = start + (seconds > 0.0 ? seconds : 0.0);
    span.parent = parent;
    span.rep = spans_[parent].rep;
    spans_.push_back(std::move(span));
  }

  /// RAII span, opened under the innermost open span. `new_rep` starts a
  /// new repetition id; otherwise the span inherits its parent's.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name, bool new_rep = false)
        : recorder_(recorder), id_(recorder.Begin(name, new_rep)) {}
    ~Scope() { recorder_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int32_t id_;
  };

  /// Suspends recording for its lifetime: the untraced repetitions of the
  /// traced run, against which tracing overhead is measured. A pause must
  /// not fall inside an open span.
  class Pause {
   public:
    explicit Pause(SpanRecorder& recorder)
        : recorder_(recorder),
          was_paused_(recorder.paused_),
          start_(recorder.Now()) {
      recorder_.paused_ = true;
    }
    ~Pause() {
      recorder_.paused_ = was_paused_;
      if (!was_paused_) recorder_.paused_seconds_ += recorder_.Now() - start_;
    }
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    SpanRecorder& recorder_;
    bool was_paused_;
    double start_;
  };

  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.duration());
    }
    return out;
  }

  /// Summed self time per span name.
  std::map<std::string, double> SelfSecondsByName() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) covered[s.parent] += s.duration();
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].duration() - covered[i];
    }
    return out;
  }

  /// Summed duration of the spans that have no children, over the traced
  /// wall time so far (the recorder's lifetime minus its paused stretches):
  /// the share of it the leaves account for. Work outside every span, and a
  /// parent's time its children leave uncovered, lower it.
  double LeafCoverage() const {
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& s : spans_) {
      if (s.parent >= 0) has_child[s.parent] = true;
    }
    double leaves = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (!has_child[i]) leaves += spans_[i].duration();
    }
    const double wall = Now() - paused_seconds_;
    return wall > 0.0 ? leaves / wall : 0.0;
  }

  /// Writes every span as one JSON array. Returns false on a write error.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d, \"rep\": %u}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent, s.rep,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  int32_t Begin(std::string_view name, bool new_rep = false) {
    if (!enabled_ || paused_) return -1;
    Span span;
    span.name = std::string(name);
    span.start = Now();
    span.end = span.start;
    span.parent = open_.empty() ? -1 : open_.back();
    span.rep = new_rep ? ++last_rep_
                       : (span.parent >= 0 ? spans_[span.parent].rep : 0);
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t id) {
    if (!enabled_ || id < 0) return;
    spans_[id].end = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  bool paused_ = false;
  double paused_seconds_ = 0.0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t last_rep_ = 0;
};

}  // namespace perfbench

#endif  // CLUSEQ_PERFBENCH_SPANS_H_
