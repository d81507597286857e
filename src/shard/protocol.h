//===- shard/protocol.h - Coordinator/worker wire protocol -----*- C++ -*-===//
///
/// \file
/// The pipe protocol between the shard coordinator and its worker
/// processes: newline-delimited JSON messages on the worker's stdout,
/// written with the src/obs/json JsonWriter and read back with its
/// parser. Two message types:
///
///  * heartbeat — `{"type":"heartbeat","shard":K,"seq":N,
///    "state_bytes":B,"layer":L}`, emitted periodically by a live worker
///    so the supervisor can distinguish a slow shard from a wedged one;
///    the liveness digest (charged state bytes, current layer, -1 when
///    unknown) distinguishes a hung-but-heartbeating worker from one
///    still making layer progress;
///  * result — `{"type":"result",...}`, the worker's ShardResult, emitted
///    exactly once right before a clean exit, optionally carrying a
///    `telemetry` section: the worker's final MetricsSnapshot, its trace
///    event buffer and its structured log records, which the supervisor
///    folds/splices into the coordinator's registries.
///
/// Doubles are serialized with %.17g and parsed with strtod, which
/// round-trips every finite IEEE-754 double bit-exactly — the merged
/// bounds are therefore exactly the bounds the workers computed, and the
/// directed-rounding soundness argument survives the process boundary.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SHARD_PROTOCOL_H
#define GENPROVE_SHARD_PROTOCOL_H

#include "src/obs/log.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/shard/shard.h"

#include <deque>
#include <string>
#include <vector>

namespace genprove {

/// Typed wire-level failure for the newline-JSON framing shared by the
/// shard pipe and the genprove_serve sockets. Distinct from message-level
/// problems (a well-framed line that is not valid JSON classifies as
/// ShardMessageKind::Invalid / a serve "malformed" error).
enum class WireError : uint8_t {
  None = 0,
  Oversized,  ///< a line exceeded the frame cap and was discarded
  Truncated,  ///< the stream ended mid-line (partial frame at EOF)
};

/// Incremental newline framer with an oversized-line cap.
///
/// Feed raw bytes as they arrive from read(); pull complete frames with
/// next(). A line longer than the cap is discarded byte-for-byte (the
/// framer never buffers more than the cap) and surfaces as exactly one
/// Frame::Oversized marker in sequence order, so a hostile or corrupted
/// peer can neither exhaust memory nor silently lose its framing: the
/// reader sees a typed error where the line would have been. At EOF,
/// finish() reports a partial trailing frame as Truncated.
class LineFramer {
public:
  enum class Frame : uint8_t {
    None,      ///< no complete frame buffered; feed more bytes
    Line,      ///< a complete line (without its newline) was produced
    Oversized, ///< an over-cap line was discarded at this position
  };

  explicit LineFramer(size_t MaxLineBytes = DefaultMaxLineBytes);

  /// Absorb \p Len raw bytes from the stream.
  void feed(const char *Data, size_t Len);

  /// Pop the next frame. On Frame::Line, \p Line holds the payload; on
  /// Oversized/None it is cleared.
  Frame next(std::string &Line);

  /// Classify the stream tail after EOF: Oversized if EOF landed inside
  /// a discarded over-cap line, Truncated if a partial ordinary line
  /// remains unterminated, None for a clean boundary.
  WireError finish() const;

  /// Total over-cap lines discarded so far.
  uint64_t oversizedLines() const { return OversizedCount; }

  static constexpr size_t DefaultMaxLineBytes = 1u << 20;

private:
  struct Pending {
    bool Oversized = false;
    std::string Text;
  };

  size_t MaxLine;
  std::string Partial;       ///< bytes of the current unterminated line
  bool Dropping = false;     ///< inside an over-cap line, discarding
  uint64_t OversizedCount = 0;
  std::deque<Pending> Ready;
};

/// Message classification for one protocol line.
enum class ShardMessageKind : uint8_t { Heartbeat, Result, Invalid };

/// Decoded heartbeat. StateBytes/Layer are -1 when the worker predates
/// the digest or no propagation is underway.
struct ShardHeartbeat {
  int64_t Shard = -1;
  int64_t Seq = 0;
  int64_t StateBytes = -1;
  int64_t Layer = -1;
};

/// Worker-side telemetry attached to a result message. HasMetrics marks
/// an actually-captured snapshot (an empty snapshot is a valid capture);
/// trace/log sections are simply empty when not collected.
struct ShardTelemetry {
  bool HasMetrics = false;
  MetricsSnapshot Metrics;
  std::vector<TraceEvent> Trace;
  std::vector<LogRecord> Log;

  bool empty() const { return !HasMetrics && Trace.empty() && Log.empty(); }
};

/// One heartbeat line (no trailing newline). StateBytes/Layer form the
/// liveness digest; pass -1 for "unknown".
std::string encodeShardHeartbeat(int64_t Shard, int64_t Seq,
                                 int64_t StateBytes = -1, int64_t Layer = -1);

/// Decode a heartbeat line; false when the line is not a heartbeat.
bool decodeShardHeartbeat(const std::string &Line, ShardHeartbeat &Out);

/// One result line (no trailing newline); attaches \p Telemetry when
/// non-null and non-empty.
std::string encodeShardResult(const ShardResult &Result,
                              const ShardTelemetry *Telemetry = nullptr);

/// Classify a protocol line without fully decoding it.
ShardMessageKind classifyShardMessage(const std::string &Line);

/// Decode a result line. False (with \p Error set when non-null) on
/// malformed JSON or a message that is not a result; fields the message
/// omits keep their (conservative) defaults. When \p Telemetry is
/// non-null, any attached telemetry section is decoded into it (left
/// empty when the message carries none — a malformed telemetry section
/// is dropped rather than failing the result, so observability problems
/// never turn a sound answer into a retry).
bool decodeShardResult(const std::string &Line, ShardResult &Out,
                       std::string *Error = nullptr,
                       ShardTelemetry *Telemetry = nullptr);

} // namespace genprove

#endif // GENPROVE_SHARD_PROTOCOL_H
