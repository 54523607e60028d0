#include "obs/trace.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace kspot::obs {

Tracer::Tracer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  names_.push_back("");  // id 0 is reserved as the no-op id
}

uint32_t Tracer::InternName(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

uint32_t Tracer::NameIdForPhase(uint32_t phase_id, std::string_view label) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (phase_id < phase_name_ids_.size() && phase_name_ids_[phase_id] != 0) {
      return phase_name_ids_[phase_id];
    }
  }
  uint32_t name_id = InternName(label);
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_id >= phase_name_ids_.size()) phase_name_ids_.resize(phase_id + 1, 0);
  phase_name_ids_[phase_id] = name_id;
  return name_id;
}

std::string Tracer::Name(uint32_t name_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (name_id >= names_.size()) return "";
  return names_[name_id];
}

void Tracer::Record(uint32_t name_id, uint64_t start_us, uint64_t dur_us) {
  TraceSpan span{name_id, ThreadTag(), start_us, dur_us};
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
  } else {
    ring_[total_ % capacity_] = span;
  }
  ++total_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t Tracer::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - ring_.size();
}

std::vector<TraceSpan> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (total_ <= capacity_) return ring_;
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  size_t head = total_ % capacity_;  // oldest surviving span
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head + i) % capacity_]);
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_ = 0;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  std::vector<TraceSpan> spans = Spans();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) { return a.start_us < b.start_us; });
  util::JsonWriter w(os);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceSpan& s : spans) {
    w.BeginObject();
    w.Key("name");
    w.Value(Name(s.name_id));
    w.Key("cat");
    w.Value("kspot");
    w.Key("ph");
    w.Value("X");
    w.Key("ts");
    w.Value(s.start_us);
    w.Key("dur");
    w.Value(s.dur_us);
    w.Key("pid");
    w.Value(0);
    w.Key("tid");
    w.Value(static_cast<uint64_t>(s.tid));
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.Value("ms");
  w.EndObject();
}

Tracer& GlobalTracer() {
  static Tracer* kTracer = new Tracer();
  return *kTracer;
}

}  // namespace kspot::obs
