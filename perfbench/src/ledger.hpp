// The benchmark's trace ledger: spans recorded from the benchmark's own
// code around each call it makes into a library layer.
//
// A span is (name, start, end); all spans of one rep share the rep's
// ledger, and every span sits directly under the rep (the benchmark never
// nests its calls into the library).  Spans live in memory and are written
// out when the rep ends; per-layer metrics are sums over span names.  An
// untraced rep passes a null ledger, so the untraced code path is the
// traced one minus the clock reads.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double seconds_since(bench_clock::time_point start);

struct span_record {
  std::string name;
  double start_s = 0.0;  ///< seconds since the ledger was created
  double end_s = -1.0;   ///< -1 while the span is open
};

class ledger {
 public:
  ledger();

  /// Opens a span and returns its index.  Thread-safe.
  long open(const std::string& name);
  /// Closes a span opened by open().  Thread-safe.
  void close(long id);

  /// Total seconds and number of closed spans named `name`.
  [[nodiscard]] double busy(const std::string& name) const;
  [[nodiscard]] std::size_t calls(const std::string& name) const;
  /// Total seconds of all closed spans.
  [[nodiscard]] double total() const;

  [[nodiscard]] std::vector<span_record> spans() const;

 private:
  bench_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<span_record> spans_;  // guarded by mutex_
};

/// RAII span; a null ledger makes it a no-op.
class span {
 public:
  span(ledger* l, const std::string& name) : ledger_(l), id_(l != nullptr ? l->open(name) : -1) {}
  ~span() {
    if (ledger_ != nullptr) ledger_->close(id_);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  ledger* ledger_;
  long id_;
};

/// Appends `spans` as JSON lines ({"workload", "rep", "name", "start_s",
/// "end_s"}) to `path`.
void write_spans(const std::string& path, const std::string& workload, std::size_t rep,
                 const std::vector<span_record>& spans);

}  // namespace perfbench
