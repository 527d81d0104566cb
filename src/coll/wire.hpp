#pragma once

// Wire format of the CAB-resident collective protocols (src/coll): one
// fixed 24-byte header in front of every collective message, composed into
// proto::HeaderBuf headroom like every other protocol header. Collective
// messages are almost always header-only — the operand of a reduce and the
// round/rank bookkeeping of a barrier ride in the header itself, so the
// common case never touches CAB data memory on the send side. Only a
// broadcast carries payload bytes after the header.

#include <cstdint>
#include <optional>
#include <span>

namespace nectar::coll {

/// Collective message kinds (the `kind` header byte).
enum class MsgKind : std::uint8_t {
  Arrive = 1,        ///< tree barrier: child -> parent, subtree has entered
  Release = 2,       ///< tree barrier: root multicast (or unicast to a straggler)
  DissemRound = 3,   ///< dissemination barrier: round `round` notification
  DissemNack = 4,    ///< dissemination: "re-send me your round `round` message"
  BcastData = 5,     ///< broadcast: root multicast, payload follows the header
  BcastAck = 6,      ///< broadcast: member -> root delivery confirmation
  ReduceUp = 7,      ///< reduce: child -> parent combined partial in `value`
  ReduceResult = 8,  ///< reduce: root multicast of the final value
};
const char* kind_name(MsgKind k);

/// Combining operators supported by the on-CAB reduce (fixed-width u64
/// operands, combined at interior tree nodes as partials flow rootward).
enum class ReduceOp : std::uint8_t { Sum = 0, Min = 1, Max = 2 };
std::uint64_t combine(ReduceOp op, std::uint64_t a, std::uint64_t b);

/// The collective header: 24 bytes on the wire, network byte order.
struct CollHeader {
  std::uint16_t group = 0;    ///< collective group id
  std::uint16_t epoch = 0;    ///< group epoch (stale-epoch messages are dropped)
  MsgKind kind = MsgKind::Arrive;
  std::uint8_t op = 0;        ///< ReduceOp for reduce messages, else 0
  std::uint16_t src_rank = 0; ///< sender's rank within the group
  std::uint32_t seq = 0;      ///< collective sequence number within the epoch
  std::uint16_t round = 0;    ///< dissemination round
  std::uint16_t length = 0;   ///< broadcast payload bytes after this header
  std::uint64_t value = 0;    ///< reduce partial / final value

  static constexpr std::size_t kSize = 24;
  void serialize(std::span<std::uint8_t> out) const;
  /// The header at the front of `in`; nullopt when `in` is shorter than a
  /// header, or its kind byte names no MsgKind or its op byte no ReduceOp.
  static std::optional<CollHeader> parse(std::span<const std::uint8_t> in);
};

}  // namespace nectar::coll
