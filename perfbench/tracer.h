// In-memory span recorder for the benchmark's traced replay.
//
// Spans are opened and closed around calls into the library's public
// functions (the benchmark never instruments library internals). They stay
// in memory until the run ends and are then written once as Chrome
// trace-event JSON ("X" complete events), which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.

#ifndef ISA_PERFBENCH_TRACER_H_
#define ISA_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace isa::perfbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  /// Opens a span and returns its id; `parent` is the id of the span that
  /// caused it (kNoParent for a root). `ad` tags per-advertiser spans.
  int Begin(std::string name, int parent = kNoParent, int ad = -1) {
    spans_.push_back({std::move(name), NowMicros(), -1.0, parent, ad});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_us = NowMicros(); }

  double Seconds(int id) const {
    return (spans_[id].end_us - spans_[id].start_us) * 1e-6;
  }
  /// Summed duration of every closed span called `name`.
  double TotalSeconds(std::string_view name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_us >= 0.0) total += s.end_us - s.start_us;
    }
    return total * 1e-6;
  }

  /// Writes every closed span as one Chrome trace-event JSON document.
  /// `metadata_json` is a JSON object placed under "otherData". Returns
  /// false when the file cannot be written.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,",
                 metadata_json.c_str());
    std::fprintf(f, "\"traceEvents\":[");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_us < 0.0) continue;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"ad\":%d,"
                   "\"workload\":\"%s\"}}",
                   first ? "" : ",", s.name.c_str(), Layer(s.name).c_str(),
                   s.start_us, s.end_us - s.start_us, i, s.parent, s.ad,
                   workload_.c_str());
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;  // < 0 while open
    int parent;
    int ad;
  };

  // The layer a span belongs to: its name up to the first '.'.
  static std::string Layer(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::string workload_;
  std::vector<Span> spans_;
};

}  // namespace isa::perfbench

#endif  // ISA_PERFBENCH_TRACER_H_
