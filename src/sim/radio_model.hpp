#pragma once

#include <cstddef>
#include <cstdint>

namespace kspot::sim {

/// MICA2 / CC1000 radio cost model, fixed: every network simulates the demo
/// deployment's motes.
///
/// The demo deployment uses MICA2 motes: 38.4 kbit/s, TinyOS TOS_Msg frames
/// with a 29-byte application payload and 7 bytes of header/CRC, preceded by
/// the CC1000 preamble + sync word. A logical message larger than one payload
/// is fragmented into ceil(bytes / 29) frames (TinyOS has no radio-level
/// fragmentation, so multi-frame messages are exactly what the nesC client
/// would send as consecutive packets).
struct RadioModel {
  /// Radio bit rate, bits per second (MICA2: 38.4 kbit/s).
  static constexpr double bitrate_bps = 38400.0;
  /// Maximum application payload per frame (TOS_Msg): 29 bytes.
  static constexpr size_t max_payload_bytes = 29;
  /// Per-frame header + CRC bytes (TOS_Msg overhead).
  static constexpr size_t frame_overhead_bytes = 7;
  /// Preamble + sync bytes transmitted before each frame (CC1000 default).
  static constexpr size_t preamble_bytes = 20;

  /// Number of frames needed for a logical payload (>= 1; a zero-byte
  /// message, e.g. a bare epoch beacon, still occupies one frame).
  static constexpr size_t FramesForPayload(size_t payload_bytes) {
    if (payload_bytes == 0) return 1;
    return (payload_bytes + max_payload_bytes - 1) / max_payload_bytes;
  }

  /// Total bytes on the air for a logical payload (frames x overhead + data).
  static constexpr size_t OnAirBytes(size_t payload_bytes) {
    size_t frames = FramesForPayload(payload_bytes);
    return payload_bytes + frames * (frame_overhead_bytes + preamble_bytes);
  }

  /// Airtime in seconds for a logical payload.
  static constexpr double AirtimeSeconds(size_t payload_bytes) {
    return static_cast<double>(OnAirBytes(payload_bytes)) * 8.0 / bitrate_bps;
  }

  /// Airtime in microseconds for a logical payload.
  static constexpr uint64_t AirtimeMicros(size_t payload_bytes) {
    return static_cast<uint64_t>(AirtimeSeconds(payload_bytes) * 1e6);
  }
};

}  // namespace kspot::sim
