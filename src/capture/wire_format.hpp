#pragma once
// Flight-recorder wire format: the on-disk framing shared by the capture
// writer and reader. A capture file is
//
//   [file header][record][record]...[record]
//
// File header: [u32 magic "CAPW"][u32 version][u64 dropped_records]
// [u32 meta_len][meta bytes]. `dropped_records` is written as 0 on open
// and patched in place on close with the number of records the capture
// ring had to shed (a lossy capture still replays, but the differential
// PI decoders may desynchronize — the reader surfaces the count so tools
// can warn).
//
// Records are net frames (src/net/frame.hpp is the one codec of
// [u32 payload_len][u32 crc][u8 type][i64 tick][u64 topic][u64 sender]
// [payload]), with `type` a RecordType. A torn or corrupt record is
// detected by its CRC or its length and everything from it onward is
// dropped during replay (net::FrameFileReader, the reader of every file
// of frames).

#include <cstdint>

namespace capes::capture {

inline constexpr std::uint32_t kWireMagic = 0x57504143u;    // "CAPW"
inline constexpr std::uint32_t kWireVersion = 1;
/// Byte offset of the dropped_records field inside the file header
/// (after magic + version), patched in place by WireLogWriter::close.
inline constexpr long kDroppedRecordsOffset = 8;

/// What one record captures. Values are the wire encoding — append only.
enum class RecordType : std::uint8_t {
  kStatus = 1,          ///< one PI message as delivered to the daemon
  kReward = 2,          ///< payload: f64 reward, f64 throughput, f64 latency
  kAction = 3,          ///< payload: u32 suggested, u32 recorded (post-veto)
  kBroadcast = 4,       ///< one checked-action broadcast (f64 parameters)
  kPhaseBegin = 5,      ///< payload: u8 RunPhase value
  kPhaseEnd = 6,        ///< payload: u8 RunPhase value
  kWorkloadChange = 7,  ///< §3.6 epsilon-bump marker, empty payload
  /// One fault-injection observation: sender is the fault node key (or
  /// the domain index for partition/degraded records), payload is one u8
  /// sim::FaultKind value. Start records (kinds 1..3) count a fault
  /// injected; the kDegraded marker (kind 0) counts one (domain, tick)
  /// with any fault active — together they let a replay rebuild the live
  /// run's per-phase fault counters exactly.
  kFault = 8,
};

}  // namespace capes::capture
