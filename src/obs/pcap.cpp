#include "obs/pcap.hpp"

#include <array>

namespace nectar::obs {

namespace {

// pcap file format constants (https://wiki.wireshark.org/Development/LibpcapFileFormat).
constexpr std::uint32_t kMagicNanosecond = 0xA1B23C4D;
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;
constexpr std::uint32_t kSnapLen = 65535;
constexpr std::uint32_t kLinktypeRaw = 101;    // raw IP, no link header
constexpr std::uint32_t kLinktypeUser0 = 147;  // Nectar datalink frames

// Nectar datalink framing (mirrors proto::DatalinkHeader, which lives above
// obs in the link order): byte 0 = packet type, byte 1 = source node,
// bytes 2-3 = big-endian payload length. Type 1 = IP.
constexpr std::size_t kDatalinkHeaderSize = 4;
constexpr std::uint8_t kPacketTypeIp = 1;

void put_le16(std::ofstream& f, std::uint16_t v) {
  std::array<char, 2> b{static_cast<char>(v & 0xFF), static_cast<char>(v >> 8)};
  f.write(b.data(), b.size());
}

void put_le32(std::ofstream& f, std::uint32_t v) {
  std::array<char, 4> b{static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
                        static_cast<char>((v >> 16) & 0xFF), static_cast<char>(v >> 24)};
  f.write(b.data(), b.size());
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path, Format format)
    : path_(path), format_(format), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) return;
  put_le32(out_, kMagicNanosecond);
  put_le16(out_, kVersionMajor);
  put_le16(out_, kVersionMinor);
  put_le32(out_, 0);  // thiszone (GMT offset): simulated clock, always 0
  put_le32(out_, 0);  // sigfigs
  put_le32(out_, kSnapLen);
  put_le32(out_, format == Format::RawIp ? kLinktypeRaw : kLinktypeUser0);
  ok_ = static_cast<bool>(out_);
}

PcapWriter::~PcapWriter() { flush(); }

void PcapWriter::frame(sim::SimTime ts, std::span<const std::uint8_t> bytes) {
  if (!ok_) return;
  if (format_ == Format::DatalinkFrame) {
    record(ts, bytes);
    return;
  }
  if (bytes.size() < kDatalinkHeaderSize || bytes[0] != kPacketTypeIp) {
    ++skipped_;
    return;
  }
  // Strip the datalink header; trust the length field but never read past
  // the frame buffer.
  std::size_t len = static_cast<std::size_t>(bytes[2]) << 8 | bytes[3];
  len = std::min(len, bytes.size() - kDatalinkHeaderSize);
  record(ts, bytes.subspan(kDatalinkHeaderSize, len));
}

void PcapWriter::record(sim::SimTime ts, std::span<const std::uint8_t> bytes) {
  std::uint32_t sec = static_cast<std::uint32_t>(ts / sim::kSecond);
  std::uint32_t nsec = static_cast<std::uint32_t>(ts % sim::kSecond);
  std::uint32_t len = static_cast<std::uint32_t>(bytes.size());
  std::uint32_t incl = std::min(len, kSnapLen);
  put_le32(out_, sec);
  put_le32(out_, nsec);
  put_le32(out_, incl);
  put_le32(out_, len);
  out_.write(reinterpret_cast<const char*>(bytes.data()), incl);
  ++written_;
}

void PcapWriter::flush() {
  if (out_.is_open()) out_.flush();
}

}  // namespace nectar::obs
