#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace bench {

namespace {

struct Event {
  const char* name;
  std::int64_t ts_ns;
  char phase;  // 'B' or 'E'
};

struct Track {
  int tid = 0;
  std::vector<Event> events;  // appended only by the owning thread
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Track>> tracks;  // guarded by mu
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

std::atomic<bool> g_recording{false};
// Owned by the registry, so a track outlives the (short-lived) pool worker
// thread that filled it.
thread_local Track* tls_track = nullptr;

void Append(const char* name, char phase) {
  Registry& registry = GetRegistry();
  if (tls_track == nullptr) {
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.tracks.push_back(std::make_unique<Track>());
    tls_track = registry.tracks.back().get();
    tls_track->tid = static_cast<int>(registry.tracks.size());
  }
  const std::int64_t ts = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - registry.epoch)
                              .count();
  tls_track->events.push_back(Event{name, ts, phase});
}

}  // namespace

void SetRecording(bool on) { g_recording.store(on, std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  name_ = name;
  Append(name, 'B');
}

Span::~Span() {
  if (name_ != nullptr) Append(name_, 'E');
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", out);
  std::fputs(
      "{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": 1, "
      "\"tid\": 0, \"args\": {\"name\": \"robustify benchmark\"}}",
      out);
  for (const std::unique_ptr<Track>& track : registry.tracks) {
    for (const Event& e : track->events) {
      std::fprintf(out,
                   ",\n{\"name\": \"%s\", \"ph\": \"%c\", \"ts\": %.3f, "
                   "\"pid\": 1, \"tid\": %d}",
                   e.name, e.phase, static_cast<double>(e.ts_ns) / 1000.0,
                   track->tid);
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace bench
