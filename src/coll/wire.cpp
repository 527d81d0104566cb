#include "coll/wire.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/headers.hpp"

namespace nectar::coll {

const char* kind_name(MsgKind k) {
  switch (k) {
    case MsgKind::Arrive: return "arrive";
    case MsgKind::Release: return "release";
    case MsgKind::DissemRound: return "dissem";
    case MsgKind::DissemNack: return "dissem-nack";
    case MsgKind::BcastData: return "bcast-data";
    case MsgKind::BcastAck: return "bcast-ack";
    case MsgKind::ReduceUp: return "reduce-up";
    case MsgKind::ReduceResult: return "reduce-result";
  }
  return "?";
}

std::uint64_t combine(ReduceOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case ReduceOp::Sum: return a + b;
    case ReduceOp::Min: return std::min(a, b);
    case ReduceOp::Max: return std::max(a, b);
  }
  throw std::logic_error("coll: unknown reduce op");
}

void CollHeader::serialize(std::span<std::uint8_t> out) const {
  proto::put16(out, 0, group);
  proto::put16(out, 2, epoch);
  proto::put8(out, 4, static_cast<std::uint8_t>(kind));
  proto::put8(out, 5, op);
  proto::put16(out, 6, src_rank);
  proto::put32(out, 8, seq);
  proto::put16(out, 12, round);
  proto::put16(out, 14, length);
  proto::put32(out, 16, static_cast<std::uint32_t>(value >> 32));
  proto::put32(out, 20, static_cast<std::uint32_t>(value));
}

std::optional<CollHeader> CollHeader::parse(std::span<const std::uint8_t> in) {
  if (in.size() < kSize) return std::nullopt;
  const std::uint8_t kind = proto::get8(in, 4);
  const std::uint8_t op = proto::get8(in, 5);
  if (kind < static_cast<std::uint8_t>(MsgKind::Arrive) ||
      kind > static_cast<std::uint8_t>(MsgKind::ReduceResult) ||
      op > static_cast<std::uint8_t>(ReduceOp::Max)) {
    return std::nullopt;
  }
  CollHeader h;
  h.group = proto::get16(in, 0);
  h.epoch = proto::get16(in, 2);
  h.kind = static_cast<MsgKind>(kind);
  h.op = op;
  h.src_rank = proto::get16(in, 6);
  h.seq = proto::get32(in, 8);
  h.round = proto::get16(in, 12);
  h.length = proto::get16(in, 14);
  h.value = (static_cast<std::uint64_t>(proto::get32(in, 16)) << 32) | proto::get32(in, 20);
  return h;
}

}  // namespace nectar::coll
