//===- shard/protocol.h - Coordinator/worker wire protocol -----*- C++ -*-===//
///
/// \file
/// The protocol between the shard coordinator and its worker processes.
/// The coordinator hands every worker the same job (ShardJob, one JSON
/// file); workers answer with newline-delimited JSON messages on their
/// stdout, written with the src/obs/json JsonWriter and read back with its
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

#include "src/core/genprove.h"
#include "src/domains/fault_injection.h"
#include "src/obs/log.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/shard/shard.h"

#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace genprove {

/// A worker-process fault injected for the CI smoke jobs: shard Shard's
/// attempts fail while their index is below Attempts. crash aborts,
/// oomkill raises SIGKILL, hang sleeps Millis without heartbeats (the
/// supervisor's heartbeat timeout must catch it), slow sleeps Millis while
/// heartbeating.
struct WorkerFault {
  std::string Mode; ///< empty (none) | crash | hang | oomkill | slow
  int64_t Shard = 0;
  int64_t Attempts = 1;
  double Millis = 600000.0;
};

/// The coordinator→worker job, shared by `genprove_cli --shards` and
/// `genprove_serve --isolate`: everything a worker process needs to
/// certify one shard of one latent segment. The coordinator writes it to
/// one file and re-execs itself once per attempt with `--worker-request
/// FILE --shard-worker K --shard-attempt A --shard-rung R`. Workers load
/// the networks from NetPaths themselves, so a crashed propagation cannot
/// corrupt the coordinator's resident copy.
struct ShardJob {
  std::vector<std::string> NetPaths;
  std::string InputShape;
  std::vector<double> Start;
  std::vector<double> End;
  std::vector<std::string> Specs; ///< OutputSpec texts
  int64_t Shards = 1;
  /// The engine configuration. The job carries the per-shard memory
  /// budget, p, k, the node threshold, the distribution, the refinement
  /// schedule and the resilience switch and deadline; a worker runs every
  /// other field at its default (runShardAttempt fixes the analysis mode
  /// and the input splits itself).
  GenProveConfig Config;
  /// The engine fault plan, when the coordinator armed one.
  std::optional<FaultPlan> Faults;
  bool Sound = false; ///< enable directed rounding in the worker process
  WorkerFault Fault;
  int64_t Threads = 0; ///< worker pool size; 0 = the default
  double HeartbeatMs = 100.0;
  /// Telemetry planes the worker records and ships on its result line.
  bool ShipMetrics = false;
  bool ShipTrace = false;
  bool ShipLog = false;
  std::string RunId; ///< stamped on shipped log records
};

/// The job as one JSON object. Doubles are %.17g, so a worker certifies
/// bit for bit the segment the coordinator holds.
std::string encodeShardJob(const ShardJob &Job);

/// Decode a job file's contents; false with the reason in \p Err on
/// damage (no networks, start/end arrays that are empty, non-finite or of
/// different lengths, an invalid spec text, fewer than one shard, an
/// unknown fault mode or a fault aimed at a shard outside [0, shards)).
/// Whether the job fits its networks is the worker's check.
bool decodeShardJob(const std::string &Text, ShardJob &Out, std::string *Err);

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
