#include "ledger.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

double seconds_since(bench_clock::time_point start) {
  return std::chrono::duration<double>(bench_clock::now() - start).count();
}

ledger::ledger() : origin_(bench_clock::now()) {}

long ledger::open(const std::string& name) {
  const double now = seconds_since(origin_);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span_record{name, now, -1.0});
  return static_cast<long>(spans_.size()) - 1;
}

void ledger::close(long id) {
  const double now = seconds_since(origin_);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_s = now;
}

double ledger::busy(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_s >= 0.0) total += s.end_s - s.start_s;
  }
  return total;
}

std::size_t ledger::calls(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& s : spans_) {
    if (s.name == name && s.end_s >= 0.0) ++count;
  }
  return count;
}

double ledger::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.end_s >= 0.0) total += s.end_s - s.start_s;
  }
  return total;
}

std::vector<span_record> ledger::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void write_spans(const std::string& path, const std::string& workload, std::size_t rep,
                 const std::vector<span_record>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) throw std::runtime_error("cannot open trace file '" + path + "'");
  for (const auto& s : spans) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"rep\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f}\n",
                 workload.c_str(), rep, s.name.c_str(), s.start_s, s.end_s);
  }
  std::fclose(f);
}

}  // namespace perfbench
