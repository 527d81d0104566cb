#include "obs/tracer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/json.hpp"

namespace nectar::obs {

int Tracer::track(const std::string& process, const std::string& thread) {
  auto it = track_ids_.find({process, thread});
  if (it != track_ids_.end()) return it->second;

  auto [pit, inserted] = pids_.try_emplace(process, static_cast<int>(pids_.size()) + 1);
  (void)inserted;
  int tid = 1;
  for (const Track& t : tracks_) {
    if (t.process == process) ++tid;
  }
  int id = static_cast<int>(tracks_.size());
  tracks_.push_back(Track{process, thread, pit->second, tid});
  track_ids_.emplace(std::make_pair(process, thread), id);
  return id;
}

const Tracer::Event* Tracer::find(std::string_view name) const {
  for (const Event& e : events_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

namespace {
/// Simulated ns -> trace-event microseconds, with the nanosecond kept as a
/// fixed 3-digit fraction so output is byte-stable.
std::string chrome_ts(sim::SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000 < 0 ? -(ns % 1000) : ns % 1000));
  return buf;
}
}  // namespace

void Tracer::export_chrome(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Metadata: name the pid/tid plane after the registered tracks.
  for (const auto& [process, pid] : pids_) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":0,\"name\":\"process_name\",\"args\":{"
       << "\"name\":\"" << json::escape(process) << "\"}}";
  }
  for (const Track& t : tracks_) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << t.pid << ",\"tid\":" << t.tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json::escape(t.thread) << "\"}}";
  }

  for (const Event& e : events_) {
    const Track& t = tracks_.at(static_cast<std::size_t>(e.track));
    sep();
    os << "{\"ph\":\"";
    switch (e.type) {
      case EventType::Begin: os << "B"; break;
      case EventType::End: os << "E"; break;
      case EventType::Instant: os << "i"; break;
      case EventType::Counter: os << "C"; break;
    }
    os << "\",\"pid\":" << t.pid << ",\"tid\":" << t.tid << ",\"ts\":" << chrome_ts(e.ts)
       << ",\"name\":\"" << json::escape(e.name) << "\",\"cat\":\"sim\"";
    if (e.type == EventType::Instant) os << ",\"s\":\"t\"";
    if (e.type == EventType::Counter) os << ",\"args\":{\"value\":" << e.value << "}";
    os << "}";
  }

  // A run can end with spans still open — a scenario hits its duration
  // horizon while server threads are scheduled in. Close them LIFO at the
  // last recorded timestamp so strict viewers see balanced B/E pairs.
  std::map<int, std::vector<const Event*>> open;
  sim::SimTime last_ts = 0;
  for (const Event& e : events_) {
    last_ts = std::max(last_ts, e.ts);
    if (e.type == EventType::Begin) {
      open[e.track].push_back(&e);
    } else if (e.type == EventType::End) {
      auto it = open.find(e.track);
      if (it != open.end() && !it->second.empty()) it->second.pop_back();
    }
  }
  for (const auto& [track, stack] : open) {
    const Track& t = tracks_.at(static_cast<std::size_t>(track));
    for (auto rit = stack.rbegin(); rit != stack.rend(); ++rit) {
      sep();
      os << "{\"ph\":\"E\",\"pid\":" << t.pid << ",\"tid\":" << t.tid
         << ",\"ts\":" << chrome_ts(last_ts) << ",\"name\":\"" << json::escape((*rit)->name)
         << "\",\"cat\":\"sim\"}";
    }
  }
  os << "\n]}\n";
}

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  export_chrome(os);
  return os.str();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  export_chrome(f);
  return static_cast<bool>(f);
}

}  // namespace nectar::obs
