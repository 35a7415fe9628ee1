#include "hcep/obs/trace.hpp"

#include "format_double.hpp"
#include "hcep/util/error.hpp"

namespace hcep::obs {

using detail::format_double;

namespace {

/// RFC 4180 field quoting: wrap in double quotes when the field contains
/// a separator, quote or line break, doubling embedded quotes. Category
/// and name strings come from call sites that may embed anything.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

char phase_letter(EventType type) {
  switch (type) {
    case EventType::kBegin: return 'B';
    case EventType::kEnd: return 'E';
    case EventType::kInstant: return 'i';
    case EventType::kCounter: return 'C';
  }
  return '?';
}

EventTracer::EventTracer(std::size_t capacity) {
  require(capacity > 0, "EventTracer: zero capacity");
  ring_.resize(capacity);
}

StringId EventTracer::intern(std::string_view s) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < strings_.size(); ++i) {
    if (strings_[i] == s) return static_cast<StringId>(i);
  }
  require(strings_.size() < kNoArg, "EventTracer: string table full");
  strings_.emplace_back(s);
  return static_cast<StringId>(strings_.size() - 1);
}

const std::string& EventTracer::string_at(StringId id) const {
  std::lock_guard lock(mutex_);
  require(id < strings_.size(), "EventTracer: unknown string id");
  return strings_[id];
}

void EventTracer::record(TraceEvent ev) {
  std::lock_guard lock(mutex_);
  if (size_ == ring_.size()) ++dropped_;  // overwriting the oldest
  ring_[head_] = ev;
  head_ = (head_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
  ++recorded_;
}

void EventTracer::begin(double ts, StringId category, StringId name,
                        StringId arg_key, double arg_value) {
  record(TraceEvent{ts, EventType::kBegin, category, name, arg_key,
                    arg_value});
}

void EventTracer::end(double ts, StringId category, StringId name) {
  record(TraceEvent{ts, EventType::kEnd, category, name, kNoArg, 0.0});
}

void EventTracer::instant(double ts, StringId category, StringId name,
                          StringId arg_key, double arg_value) {
  record(TraceEvent{ts, EventType::kInstant, category, name, arg_key,
                    arg_value});
}

void EventTracer::counter(double ts, StringId category, StringId name,
                          double value) {
  record(TraceEvent{ts, EventType::kCounter, category, name, kNoArg,
                    value});
}

std::size_t EventTracer::size() const {
  std::lock_guard lock(mutex_);
  return size_;
}

std::uint64_t EventTracer::recorded() const {
  std::lock_guard lock(mutex_);
  return recorded_;
}

std::uint64_t EventTracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> EventTracer::events() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t oldest =
      (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(oldest + i) % ring_.size()]);
  }
  return out;
}

void EventTracer::clear() {
  std::lock_guard lock(mutex_);
  head_ = 0;
  size_ = 0;
}

JsonValue EventTracer::chrome_trace() const {
  const std::vector<TraceEvent> evs = events();
  std::lock_guard lock(mutex_);
  JsonValue arr = JsonValue::array();
  for (const TraceEvent& ev : evs) {
    JsonValue one = JsonValue::object();
    one.set("name", JsonValue::string(strings_[ev.name]));
    one.set("cat", JsonValue::string(strings_[ev.category]));
    one.set("ph",
            JsonValue::string(std::string(1, phase_letter(ev.type))));
    // Chrome expects microseconds; simulated seconds scale up.
    one.set("ts", JsonValue::number(ev.ts * 1e6));
    one.set("pid", JsonValue::number(std::int64_t{0}));
    one.set("tid", JsonValue::number(std::int64_t{0}));
    if (ev.type == EventType::kCounter) {
      JsonValue args = JsonValue::object();
      args.set("value", JsonValue::number(ev.arg_value));
      one.set("args", std::move(args));
    } else if (ev.arg_key != kNoArg) {
      JsonValue args = JsonValue::object();
      args.set(strings_[ev.arg_key], JsonValue::number(ev.arg_value));
      one.set("args", std::move(args));
    }
    arr.push(std::move(one));
  }
  JsonValue root = JsonValue::object();
  root.set("traceEvents", std::move(arr));
  root.set("displayTimeUnit", JsonValue::string("ms"));
  if (dropped_ > 0) {
    root.set("droppedEvents",
             JsonValue::number(static_cast<std::int64_t>(dropped_)));
  }
  return root;
}

std::string EventTracer::chrome_trace_json() const {
  return chrome_trace().dump();
}

std::string EventTracer::jsonl() const {
  const std::vector<TraceEvent> evs = events();
  std::lock_guard lock(mutex_);
  std::string out;
  for (const TraceEvent& ev : evs) {
    out += "{\"ts\":";
    out += format_double(ev.ts);
    out += ",\"ph\":\"";
    out += phase_letter(ev.type);
    out += "\",\"cat\":\"";
    append_json_escaped(out, strings_[ev.category]);
    out += "\",\"name\":\"";
    append_json_escaped(out, strings_[ev.name]);
    out += '"';
    if (ev.type == EventType::kCounter || ev.arg_key != kNoArg) {
      out += ",\"arg\":{\"";
      if (ev.arg_key != kNoArg) {
        append_json_escaped(out, strings_[ev.arg_key]);
      } else {
        out += "value";
      }
      out += "\":";
      out += format_double(ev.arg_value);
      out += '}';
    }
    out += "}\n";
  }
  return out;
}

std::string EventTracer::csv() const {
  const std::vector<TraceEvent> evs = events();
  std::lock_guard lock(mutex_);
  std::string out = "ts,phase,category,name,arg_key,arg_value\n";
  for (const TraceEvent& ev : evs) {
    out += format_double(ev.ts);
    out += ',';
    out += phase_letter(ev.type);
    out += ',';
    out += csv_field(strings_[ev.category]);
    out += ',';
    out += csv_field(strings_[ev.name]);
    out += ',';
    if (ev.arg_key != kNoArg) out += csv_field(strings_[ev.arg_key]);
    out += ',';
    out += format_double(ev.arg_value);
    out += '\n';
  }
  return out;
}

}  // namespace hcep::obs
