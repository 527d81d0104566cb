#include "hw/vme.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace nectar::hw {

namespace {
bool occupying(obs::Profiler* p) { return p != nullptr && p->enabled(); }
}

sim::SimTime VmeBus::acquire(sim::SimTime duration) {
  sim::SimTime start = std::max(engine_.now(), busy_until_);
  busy_until_ = start + duration;
  return busy_until_;
}

void VmeBus::trace_span(const char* label, sim::SimTime start, sim::SimTime end) const {
  // The bus serializes grants, so [start, end) intervals never overlap and
  // explicit-timestamp begin/end pairs nest trivially on the track.
  if (!obs::tracing(tracer_)) return;
  tracer_->begin_at(trace_track_, label, start);
  tracer_->end_at(trace_track_, label, end);
}

void VmeBus::stall_for(sim::SimTime duration) {
  ++stalls_;
  stall_time_ += duration;
  sim::SimTime end = acquire(duration);
  if (occupying(profiler_)) profiler_->record_occupancy(name_, "stall", duration);
  trace_span("vme.stall", end - duration, end);
}

sim::SimTime VmeBus::programmed_access(std::size_t words) {
  words_ += words;
  sim::SimTime duration = static_cast<sim::SimTime>(words) * word_access_;
  sim::SimTime end = acquire(duration);
  if (occupying(profiler_)) profiler_->record_occupancy(name_, "pio", duration);
  trace_span("vme.pio", end - duration, end);
  return end;
}

void VmeBus::dma_transfer(std::size_t bytes, std::function<void()> done) {
  ++dma_count_;
  dma_bytes_ += bytes;
  sim::SimTime duration = sim::costs::kVmeDmaSetup +
                          sim::transmit_time(static_cast<std::int64_t>(bytes), dma_rate_);
  sim::SimTime end = acquire(duration);
  if (occupying(profiler_)) profiler_->record_occupancy(name_, "dma", duration);
  trace_span("vme.dma", end - duration, end);
  engine_.schedule_at(end, std::move(done));
}

void VmeBus::attach_tracer(obs::Tracer* tracer, int track) {
  tracer_ = tracer;
  trace_track_ = track;
}

void VmeBus::register_metrics(obs::Registration& reg, int node) const {
  reg.probe(node, "vme", "words", [this] { return static_cast<std::int64_t>(words_); });
  reg.probe(node, "vme", "dma_bytes", [this] { return static_cast<std::int64_t>(dma_bytes_); });
  reg.probe(node, "vme", "dma_transfers",
            [this] { return static_cast<std::int64_t>(dma_count_); });
  // stalls()/stall_time() stay accessor-only: adding probes here would
  // perturb the committed metrics snapshots of every bench that never faults.
}

}  // namespace nectar::hw
