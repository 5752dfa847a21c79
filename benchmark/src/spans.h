// The benchmark's own span recorder: begin/end events kept in memory per
// thread and written once, at exit, as Chrome trace-event JSON.
//
// It records only the boundaries the benchmark itself drives (workload >
// setup / campaign / query > trial), from outside the library; the program's
// own trace ring stays off so the traced run measures what a user of the
// library pays plus this recorder.  Off, a span costs one relaxed load.
#pragma once

#include <string>

namespace bench {

// Starts or pauses collection.  Spans that began while recording always
// record their end, so pausing never unbalances a track.
void SetRecording(bool on);

// RAII span; `name` must be a string literal (only the pointer is stored).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
};

// Writes every recorded event as {"traceEvents": [...]}, one track per
// thread that recorded.  Call when no span is open on another thread.
// Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path);

}  // namespace bench
