// Span recorder for traced runs. Spans live in memory (no I/O while the
// run measures) and are written out when it ends, together with a
// per-layer table of counts, total and self times. A span's self time is
// its duration minus the part covered by its direct children. Spans of
// one frame carry that frame's (site, epoch) id.
//
// Only the client's thread that plays the sites records spans; the
// poller thread is timed separately, so no locking is needed here.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Span {
    const char* name = "";
    std::uint32_t parent = kNone;
    std::uint32_t site = kNone;
    std::uint32_t epoch = kNone;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  // Spans are recorded only while enabled; the workloads switch it per
  // collection round so a traced run also holds untraced rounds to price
  // the tracing itself.
  bool enabled = false;

  std::uint32_t begin(const char* name, std::uint32_t site = kNone,
                      std::uint32_t epoch = kNone) {
    if (!enabled) return kNone;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, open_.empty() ? kNone : open_.back(), site, epoch, now_ns(), 0});
    open_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    if (id == kNone) return;
    spans_[id].end = now_ns();
    open_.pop_back();
  }

  // RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint32_t site = kNone,
          std::uint32_t epoch = kNone)
        : tracer_(t), id_(t.begin(name, site, epoch)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

  struct LayerRow {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, LayerRow> layer_table() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) child_ns[s.parent] += s.end - s.start;
    }
    std::map<std::string, LayerRow> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      LayerRow& row = rows[spans_[i].name];
      const std::int64_t d = spans_[i].end - spans_[i].start;
      row.count += 1;
      row.total_ms += static_cast<double>(d) * 1e-6;
      row.self_ms += static_cast<double>(d - child_ns[i]) * 1e-6;
    }
    return rows;
  }
  // Total duration of every span named `name`, and how many there were.
  std::pair<double, std::uint64_t> total_ns(const char* name) const {
    double ns = 0.0;
    std::uint64_t n = 0;
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name) {
        ns += static_cast<double>(s.end - s.start);
        ++n;
      }
    }
    return {ns, n};
  }

  // One JSON object per line: {"id","name","parent","site","epoch","start_ns","end_ns"}.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"site\":%lld,\"epoch\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   s.site == kNone ? -1LL : static_cast<long long>(s.site),
                   s.epoch == kNone ? -1LL : static_cast<long long>(s.epoch),
                   static_cast<long long>(s.start - t0), static_cast<long long>(s.end - t0));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

}  // namespace perfbench
