#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hw/fifo.hpp"
#include "hw/frame.hpp"
#include "hw/link.hpp"
#include "hw/memory.hpp"
#include "hw/vme.hpp"
#include "sim/engine.hpp"

namespace nectar::hw {

/// CAB DMA controller (paper §2.2): manages simultaneous transfers between
/// the incoming/outgoing fibers and CAB memory, and between VME and CAB
/// memory, leaving the CAB CPU free. Handles low-level flow control (waits
/// for FIFO data / drain). DMA touches the *data* memory region only;
/// attempts to DMA program memory fault.
class DmaController {
 public:
  DmaController(sim::Engine& engine, CabMemory& memory, FiberInFifo& in_fifo, FiberLink& out_link,
                VmeBus* vme);

  // ---- Receive channel (fiber in -> data memory) -------------------------

  /// Drain the FIFO's front frame into memory at `dst`, skipping the first
  /// `skip` payload bytes (the datalink header the CPU already consumed).
  /// When `dst` is kDiscard the payload is drained but not stored.
  /// `done(frame, crc_ok)` fires when the last byte has been moved;
  /// `crc_ok` is the hardware CRC verdict.
  static constexpr CabAddr kDiscard = 0xFFFFFFFFu;
  using RecvDone = sim::InplaceFunction<void(FiberInFifo::ArrivedFrame, bool), 48>;
  void start_recv(CabAddr dst, std::size_t skip, RecvDone done);
  bool recv_busy() const { return recv_busy_; }

  // ---- Send channel (data memory -> fiber out) ---------------------------

  /// Transmit a frame: `header` (datalink + protocol header bytes, gathered
  /// from the CPU's composition buffer) followed by `len` bytes from data
  /// memory at `src`. `f` arrives addressed — a unicast `route`, or a
  /// multicast tree in `mcast` that every HUB it reaches replicates
  /// (hw::McastTree: one send-channel pass, one fiber serialization, the
  /// fan-out happens in the fabric) — and the controller fills in the rest.
  /// The header bytes are copied into the frame's pooled payload buffer
  /// before this returns; `header` need not outlive the call.
  /// Hardware computes the CRC over the payload as it streams out.
  /// `done` fires when the last byte has left the transmitter.
  /// `trace` (optional) is the causal-trace context mirrored onto the frame
  /// so fabric elements can attribute time to the sampled message.
  void start_send(Frame f, std::span<const std::uint8_t> header, CabAddr src, std::size_t len,
                  SendCallback done, int src_node = -1, obs::TraceContext trace = {});

  // ---- VME channel (host memory <-> data memory) -------------------------

  /// Block-copy host memory into CAB data memory. The host span must stay
  /// alive until `done`.
  void start_vme_to_cab(std::span<const std::uint8_t> host_src, CabAddr dst,
                        std::function<void()> done);
  /// Block-copy CAB data memory out to host memory.
  void start_cab_to_vme(CabAddr src, std::span<std::uint8_t> host_dst, std::function<void()> done);

  std::uint64_t recv_frames() const { return recv_frames_; }
  std::uint64_t recv_crc_errors() const { return recv_crc_errors_; }
  std::uint64_t send_frames() const { return send_frames_; }
  std::uint64_t vme_transfers() const { return vme_transfers_; }

  /// Record fiber-channel occupancy (recv drain / send setup) into `profiler`
  /// under `name` ("node<i>.dma"). VME-channel occupancy is recorded by the
  /// VmeBus itself. nullptr detaches.
  void attach_profiler(obs::Profiler* profiler, std::string name) {
    profiler_ = profiler;
    profile_name_ = std::move(name);
  }

 private:
  void check_dma_range(CabAddr a, std::size_t len) const;
  void flush_send();   // channel-setup elapsed: hand the next frame to the link
  void finish_recv();  // last byte arrived: pop the FIFO and report CRC

  sim::Engine& engine_;
  CabMemory& memory_;
  FiberInFifo& in_fifo_;
  FiberLink& out_link_;
  VmeBus* vme_;

  // Pending state lives in the controller, not in event captures, so the
  // scheduled events stay small enough for the engine's inline slots.
  struct PendingSend {
    Frame frame;
    SendCallback done;
  };
  std::deque<PendingSend> send_queue_;
  RecvDone recv_done_;

  obs::Profiler* profiler_ = nullptr;
  std::string profile_name_;

  bool recv_busy_ = false;
  std::uint64_t recv_frames_ = 0;
  std::uint64_t recv_crc_errors_ = 0;
  std::uint64_t send_frames_ = 0;
  std::uint64_t vme_transfers_ = 0;
  std::uint64_t next_frame_id_ = 1;
};

}  // namespace nectar::hw
