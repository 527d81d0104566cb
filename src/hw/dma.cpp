#include "hw/dma.hpp"

#include <algorithm>
#include <stdexcept>

#include "hw/crc.hpp"
#include "obs/causal.hpp"
#include "obs/profiler.hpp"
#include "sim/costs.hpp"

namespace nectar::hw {

DmaController::DmaController(sim::Engine& engine, CabMemory& memory, FiberInFifo& in_fifo,
                             FiberLink& out_link, VmeBus* vme)
    : engine_(engine), memory_(memory), in_fifo_(in_fifo), out_link_(out_link), vme_(vme) {}

void DmaController::check_dma_range(CabAddr a, std::size_t len) const {
  if (!CabMemory::in_data_region(a, len)) {
    throw std::logic_error("DmaController: DMA is supported for data memory only (paper §2.2)");
  }
}

void DmaController::start_recv(CabAddr dst, std::size_t skip, RecvDone done) {
  if (!in_fifo_.has_frame()) throw std::logic_error("DmaController::start_recv: FIFO empty");
  if (recv_busy_) throw std::logic_error("DmaController::start_recv: channel busy");
  recv_busy_ = true;

  const FiberInFifo::ArrivedFrame& front = in_fifo_.front();
  if (dst != kDiscard) obs::stage(front.frame.trace, "rx.dma");
  std::size_t payload_len = front.frame.payload.size();
  std::size_t copy_len = payload_len > skip ? payload_len - skip : 0;
  if (dst != kDiscard && copy_len > 0) check_dma_range(dst, copy_len);

  // The DMA streams bytes into memory as they arrive (cut-through): the
  // simulation deposits them now so protocol upcalls can read header bytes
  // early, but consumers must respect the arrival times exposed by the FIFO
  // (payload_available_at) — the datalink layer stalls on those before
  // reading. The CRC verdict exists only once the last byte has arrived.
  if (dst != kDiscard && copy_len > 0) {
    memory_.write(dst, front.frame.payload.bytes().subspan(skip, copy_len));
  }

  // Low-level flow control: the channel waits for the last byte to arrive
  // (if still in flight), then finishes draining the FIFO.
  sim::SimTime finish = std::max(front.last_byte, engine_.now() + sim::costs::kDmaSetup) +
                        sim::costs::kFifoDrain;

  if (profiler_ != nullptr && profiler_->enabled()) {
    profiler_->record_occupancy(profile_name_, "recv", finish - engine_.now());
  }

  recv_done_ = std::move(done);
  engine_.schedule_at(finish, [this] { finish_recv(); });
}

void DmaController::finish_recv() {
  FiberInFifo::ArrivedFrame af = in_fifo_.pop();
  bool crc_ok = Crc32::compute(af.frame.payload) == af.frame.crc;
  ++recv_frames_;
  if (!crc_ok) ++recv_crc_errors_;
  recv_busy_ = false;
  // Move the completion out first: it may start the next receive.
  RecvDone done = std::move(recv_done_);
  done(std::move(af), crc_ok);
}

void DmaController::start_send(Frame f, std::span<const std::uint8_t> header, CabAddr src,
                               std::size_t len, SendCallback done, int src_node,
                               obs::TraceContext trace) {
  if (len > 0) check_dma_range(src, len);
  f.trace = trace;
  obs::stage(trace, "tx.dma");
  // Gather [header][payload] into one pooled buffer: the header bytes come
  // from the CPU's composition buffer, the payload from CAB data memory.
  f.payload = PooledBytes(header.size() + len);
  std::copy(header.begin(), header.end(), f.payload.begin());
  if (len > 0) {
    memory_.read(src, f.payload.bytes().subspan(header.size(), len));
  }
  f.crc = Crc32::compute(f.payload);  // hardware CRC, zero CPU cost
  f.id = next_frame_id_++;
  f.src_node = src_node;
  ++send_frames_;

  // The memory->FIFO leg streams at least at fiber rate and overlaps the
  // transmission; a fixed setup charge covers channel programming. The frame
  // waits in the controller (FIFO order matches event order at equal times).
  if (profiler_ != nullptr && profiler_->enabled()) {
    profiler_->record_occupancy(profile_name_, "send", sim::costs::kDmaSetup);
  }
  send_queue_.push_back(PendingSend{std::move(f), std::move(done)});
  engine_.schedule_in(sim::costs::kDmaSetup, [this] { flush_send(); });
}

void DmaController::flush_send() {
  PendingSend p = std::move(send_queue_.front());
  send_queue_.pop_front();
  out_link_.submit(std::move(p.frame), std::move(p.done));
}

void DmaController::start_vme_to_cab(std::span<const std::uint8_t> host_src, CabAddr dst,
                                     std::function<void()> done) {
  if (vme_ == nullptr) throw std::logic_error("DmaController: no VME bus attached");
  check_dma_range(dst, host_src.size());
  ++vme_transfers_;
  vme_->dma_transfer(host_src.size(), [this, host_src, dst, done = std::move(done)] {
    memory_.write(dst, host_src);
    done();
  });
}

void DmaController::start_cab_to_vme(CabAddr src, std::span<std::uint8_t> host_dst,
                                     std::function<void()> done) {
  if (vme_ == nullptr) throw std::logic_error("DmaController: no VME bus attached");
  check_dma_range(src, host_dst.size());
  ++vme_transfers_;
  vme_->dma_transfer(host_dst.size(), [this, src, host_dst, done = std::move(done)] {
    memory_.read(src, host_dst);
    done();
  });
}

}  // namespace nectar::hw
