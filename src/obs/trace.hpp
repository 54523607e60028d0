#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"

namespace kspot::obs {

/// One completed span: an interned name, the recording thread's tag, and a
/// wall-clock [start, start+dur) window in microseconds.
struct TraceSpan {
  uint32_t name_id = 0;
  uint32_t tid = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
};

/// Ring-buffered span recorder with its own name interning (ids are stable,
/// 0 is reserved as the invalid/no-op id), a cache mapping the simulator's
/// interned sim::PhaseId values to span names, and a Chrome trace-event JSON
/// exporter (chrome://tracing / Perfetto loadable).
///
/// Recording takes a mutex: spans are produced at wave/epoch granularity —
/// a handful per epoch, never per message — so contention is negligible and
/// the recorder stays TSan-clean when parallel trials record concurrently. When
/// the ring is full the oldest spans are overwritten (dropped() counts them);
/// a trace is a tail window, not an unbounded log.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  /// Interns `name`, returning its stable nonzero id.
  uint32_t InternName(std::string_view name);

  /// Name id for an interned simulator phase: the first call for a given
  /// phase id interns `label`, later calls are an indexed vector read.
  uint32_t NameIdForPhase(uint32_t phase_id, std::string_view label);

  /// The interned name for `name_id` ("" for 0 / unknown ids).
  std::string Name(uint32_t name_id) const;

  /// Records one completed span (tid is taken from the calling thread).
  /// Unconditional — callers gate on TracingOn(); ScopedSpan does this.
  void Record(uint32_t name_id, uint64_t start_us, uint64_t dur_us);

  /// Buffered span count (<= capacity).
  size_t size() const;
  /// Spans recorded over the tracer's lifetime.
  uint64_t total_recorded() const;
  /// Spans overwritten by ring wrap-around.
  uint64_t dropped() const;

  /// Copies the buffered spans oldest-first.
  std::vector<TraceSpan> Spans() const;

  /// Drops buffered spans (interned names survive).
  void Clear();

  /// Writes the buffered spans as Chrome trace-event JSON:
  /// {"traceEvents":[{"name","cat":"kspot","ph":"X","ts","dur","pid":0,
  ///  "tid"}...],"displayTimeUnit":"ms"} — complete events sorted by start.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<uint32_t> phase_name_ids_;
  std::vector<TraceSpan> ring_;
  const size_t capacity_;
  uint64_t total_ = 0;
};

/// The process-global tracer every built-in span records into (never
/// destroyed, so cached name ids outlive static teardown).
Tracer& GlobalTracer();

/// RAII span: times its scope on the wall clock and records into the global
/// tracer. A zero name id or tracing being disabled at construction makes it
/// a complete no-op, so call sites write
///   ScopedSpan span(TracingOn() ? GlobalTracer().InternName("x") : 0);
/// or cache the id in a function-local static and construct unconditionally.
class ScopedSpan {
 public:
  explicit ScopedSpan(uint32_t name_id) : name_id_(name_id), live_(name_id != 0 && TracingOn()) {
    if (live_) start_us_ = NowMicros();
  }
  ~ScopedSpan() {
    if (live_) GlobalTracer().Record(name_id_, start_us_, NowMicros() - start_us_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t name_id_;
  bool live_;
  uint64_t start_us_ = 0;
};

}  // namespace kspot::obs
