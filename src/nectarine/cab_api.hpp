#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "nectarine/nectarine.hpp"

namespace nectar::coll {
class CollectiveEngine;
enum class ReduceOp : std::uint8_t;
}

namespace nectar::nectarine {

/// CAB-side Nectarine (paper §3.5): "Nectarine simplifies the task of
/// writing Nectar applications by hiding the details of the host-CAB
/// interface and presenting the same interface on both the CAB and host."
///
/// This is the CAB half of that symmetry: the same method names and shapes
/// as HostNectarine, so application code can be written once and run as a
/// host process or as a CAB task. On the CAB the operations are direct
/// (no VME charges); on the host they cross the bus — the *interface* is
/// what stays identical.
class CabNectarine {
 public:
  CabNectarine(core::CabRuntime& rt, nproto::DatagramProtocol& datagram, nproto::Rmp& rmp,
               nproto::ReqResp& reqresp);

  CabNectarine(const CabNectarine&) = delete;
  CabNectarine& operator=(const CabNectarine&) = delete;

  core::CabRuntime& cab() { return rt_; }

  /// Same handle shape as HostNectarine::HostMailbox (the cond is unused on
  /// the CAB side — CAB threads block in the mailbox directly).
  struct MailboxRef {
    core::Mailbox* mb = nullptr;
  };

  MailboxRef create_mailbox(const std::string& name);
  MailboxRef attach(core::Mailbox& mb);

  core::Message begin_put(MailboxRef& h, std::uint32_t size);
  void end_put(MailboxRef& h, core::Message m);
  core::Message begin_get(MailboxRef& h);
  void end_get(MailboxRef& h, core::Message m);

  void write_message(const core::Message& m, std::span<const std::uint8_t> data);
  void read_message(const core::Message& m, std::span<std::uint8_t> out);

  /// Send the bytes of a held message to a remote mailbox.
  void send_datagram(core::MailboxAddr dst, core::Message m, std::uint32_t reply_mailbox = 0);
  void send_reliable(core::MailboxAddr dst, core::Message m);

  /// Start a named task on a remote CAB (same signature role as the host
  /// variant; on the CAB we call the remote service directly).
  bool start_remote_task(core::MailboxAddr remote_service, const std::string& task,
                         std::uint32_t arg);

  // --- collectives (src/coll) ----------------------------------------------

  /// Attach this node's CAB-resident collective engine. The coll_* calls
  /// below forward to it (same names and shapes as HostNectarine, keeping
  /// the §3.5 host/CAB interface symmetry); they are defined alongside the
  /// engine in src/coll, so Nectarine itself carries no dependency on it.
  void attach_collectives(coll::CollectiveEngine* engine) { coll_ = engine; }
  coll::CollectiveEngine* collectives() { return coll_; }

  bool coll_barrier(std::uint16_t group);
  bool coll_bcast(std::uint16_t group, std::span<std::uint8_t> data);
  bool coll_reduce(std::uint16_t group, coll::ReduceOp op, std::uint64_t contribution,
                   std::uint64_t* result);

 private:
  core::CabRuntime& rt_;
  nproto::DatagramProtocol& datagram_;
  nproto::Rmp& rmp_;
  nproto::ReqResp& reqresp_;
  core::Mailbox& scratch_;
  coll::CollectiveEngine* coll_ = nullptr;
};

}  // namespace nectar::nectarine
