#include "core/runtime.hpp"

namespace nectar::core {

CabRuntime::CabRuntime(hw::CabBoard& board, obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : board_(board),
      cpu_(board.engine(), board.name() + ".cpu"),
      heap_(board.memory()),
      signals_(cpu_, board.memory(), heap_),
      cab_syncs_(board.name() + ".cab-syncs"),
      host_syncs_(board.name() + ".host-syncs"),
      own_metrics_(metrics == nullptr ? std::make_unique<obs::MetricsRegistry>() : nullptr),
      metrics_(metrics != nullptr ? metrics : own_metrics_.get()),
      tracer_(tracer),
      metrics_reg_(*metrics_) {
  cpu_.register_metrics(metrics_reg_, node_id(), "cab.cpu");
  if (tracer_ != nullptr) {
    int track = tracer_->track("node" + std::to_string(node_id()), "cab.cpu");
    cpu_.attach_tracer(tracer_, track);
  }
  // Start-of-packet interrupt: the input FIFO went non-empty (§4.1).
  board_.set_irq_handler(hw::CabIrq::PacketArrival, [this] {
    cpu_.post_interrupt([this] {
      if (packet_handler_) packet_handler_();
    });
  });
  // Host doorbell: drain the CAB signal queue at interrupt level (§3.2).
  board_.set_irq_handler(hw::CabIrq::HostDoorbell, [this] {
    cpu_.post_interrupt([this] { signals_.drain_cab_queue(); });
  });
  // DMA completion lines: the datalink layer passes completion lambdas to
  // the DMA controller directly, wrapping them in post_interrupt; these
  // default handlers exist so stray raises fail loudly in tests.
  board_.set_irq_handler(hw::CabIrq::DmaRecvDone, [] {});
  board_.set_irq_handler(hw::CabIrq::DmaSendDone, [] {});
  board_.set_irq_handler(hw::CabIrq::VmeDone, [] {});
}

Mailbox& CabRuntime::create_mailbox(std::string name) {
  std::uint32_t index = next_mailbox_++;
  MailboxAddr addr{board_.node_id(), index};
  auto mb = std::make_unique<Mailbox>(cpu_, heap_, std::move(name), addr);
  Mailbox& ref = *mb;
  ref.register_metrics(metrics_reg_, node_id());
  mailboxes_.emplace(index, std::move(mb));
  return ref;
}

Mailbox* CabRuntime::find_mailbox(std::uint32_t index) {
  auto it = mailboxes_.find(index);
  return it == mailboxes_.end() ? nullptr : it->second.get();
}

void CabRuntime::log(const char* kind, std::string detail) {
  const sim::SimTime t = engine().now();
  if (obs::tracing(cpu_.tracer())) cpu_.tracer()->instant_at(cpu_.trace_track(), kind, t);
  if (log_.size() >= kLogCap) {
    ++log_dropped_;
    return;
  }
  log_.push_back(LogEntry{t, node_id(), kind, std::move(detail)});
}

}  // namespace nectar::core
