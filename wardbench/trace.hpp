// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// module's public API (the program itself carries no instrumentation).
// Each span keeps its name, start and end on the steady clock, its parent
// (the span open when it started) and the workload it belongs to. Nothing
// is written until the run ends; self times are derived afterwards.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wardbench {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t parent = kNoParent;
  };

  /// A disabled tracer records nothing; Scope then costs one branch.
  Tracer(std::string workload, bool enabled) : workload_(std::move(workload)), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled_) index_ = tracer_.open(name);
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  const std::vector<Record>& records() const { return records_; }

  /// Per-name totals of span duration and self time (duration minus the
  /// part covered by direct children), in seconds, plus span counts.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(records_.size(), 0);
    for (const auto& r : records_)
      if (r.parent != kNoParent) child_ns[r.parent] += r.end_ns - r.start_ns;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      auto& t = out[r.name];
      t.total_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
      t.self_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns - child_ns[i]);
      ++t.count;
    }
    return out;
  }

  /// Write every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"workload\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld}\n",
                   i, r.name.c_str(), workload_.c_str(), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent));
    }
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::size_t open(const char* name) {
    const std::size_t parent = stack_.empty() ? kNoParent : stack_.back();
    records_.push_back({name, now_ns(), 0, parent});
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }
  void close(std::size_t index) {
    records_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  std::string workload_;
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;  ///< Open spans, innermost last.
};

}  // namespace wardbench
