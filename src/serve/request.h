//===- serve/request.h - Serve wire messages -------------------*- C++ -*-===//
///
/// \file
/// The genprove_serve wire protocol: newline-delimited JSON over a Unix
/// or TCP socket, one message per line, framed by the hardened LineFramer
/// (shard/protocol.h) and encoded/parsed with src/obs/json. Requests:
///
///   {"type":"verify","id":"c0-17","net":"tiny","input_shape":"1x4",
///    "start":[...],"end":[...],"specs":["argmax:0:3"],
///    "deadline_ms":500,"budget_mb":64,"p":0.02,"k":100,"threshold":250,
///    "deterministic":false,"sound":true,"arcsine":false,
///    "inject":"crash","inject_ms":200}
///   {"type":"stats"}   live counters + Prometheus exposition
///   {"type":"ping"}    liveness probe
///
/// Responses (status semantics in docs/SERVING.md):
///
///   {"type":"result","id":...,"status":"ok|degraded|overloaded|error",
///    "rung":"configured|resilient|interval-box",
///    "specs":[{"lower":l,"upper":u,"degraded":b,"verdict":"..."}],
///    "queue_ms":...,"run_ms":...,"retry_after_ms":...,"error":"..."}
///   {"type":"stats","inflight":N,"queued":N,"draining":b,
///    "requests":N,"shed":N,"prometheus":"<text exposition>"}
///   {"type":"pong"}
///   {"type":"error","code":"malformed|oversized|bad_request|draining",
///    "detail":"..."}
///
/// Doubles are %.17g both ways, so the bounds a client reads are
/// bit-exactly the bounds the engine computed.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SERVE_REQUEST_H
#define GENPROVE_SERVE_REQUEST_H

#include "src/core/spec.h"
#include "src/tensor/tensor.h"
#include "src/serve/admission.h"
#include "src/shard/supervisor.h"

#include <string>
#include <vector>

namespace genprove {

/// Parsed verify request. Engine knobs default to the CLI's defaults.
struct ServeRequest {
  enum class Kind : uint8_t { Verify, Stats, Ping };

  Kind Type = Kind::Verify;
  std::string Id;       ///< client correlation id, echoed verbatim
  std::string Net;      ///< registered model name
  std::string InputShape;
  std::vector<double> Start;
  std::vector<double> End;
  std::vector<std::string> Specs;
  double DeadlineMs = 0.0; ///< 0 = no deadline
  int64_t BudgetMb = 0;    ///< requested budget; 0 = server decides
  double RelaxPercent = 0.0;
  double ClusterK = 100.0;
  int64_t NodeThreshold = 250;
  bool Deterministic = false;
  bool Sound = false;
  bool Arcsine = false;
  /// Fault injection for the CI smoke job ("crash"|"hang"|"oomkill"|
  /// "slow"; empty = none). Honored only when the server runs with
  /// --allow-inject.
  std::string Inject;
  double InjectMs = 200.0;
};

/// Decode one request line. False with a machine-readable \p Code
/// ("malformed" | "bad_request") and human \p Detail on failure.
bool decodeServeRequest(const std::string &Line, ServeRequest &Out,
                        std::string *Code, std::string *Detail);

/// Per-spec slice of a verify response.
struct ServeSpecBounds {
  double Lower = 0.0;
  double Upper = 1.0;
  bool Degraded = false;
  std::string Verdict; ///< "HOLDS"/"NEVER HOLDS"/"UNKNOWN" or "p in [l,u]"
};

/// A verify response ready for encoding.
struct ServeResponse {
  std::string Id;
  /// "ok" (certified at full fidelity), "degraded" (sound but widened),
  /// "overloaded" (shed by admission control), "error".
  std::string Status = "ok";
  ShardRung Rung = ShardRung::Configured;
  std::vector<ServeSpecBounds> Specs;
  double QueueMs = 0.0;
  double RunMs = 0.0;
  double RetryAfterMs = 0.0; ///< backoff hint on "overloaded"
  std::string Error;         ///< non-empty on "error"
  ShedReason Shed = ShedReason::None;
};

/// One response line (no trailing newline).
std::string encodeServeResponse(const ServeResponse &R);

/// {"type":"error",...} line for protocol-level failures.
std::string encodeServeError(const std::string &Code,
                             const std::string &Detail);

/// {"type":"pong"} line.
std::string encodeServePong();

/// Live daemon state served on {"type":"stats"}.
struct ServeStatsInfo {
  int64_t InFlight = 0;
  int64_t Queued = 0;
  bool Draining = false;
  int64_t Requests = 0;
  int64_t Shed = 0;
  /// Propagation-cache counters (domains/prop_cache.h); all zero when the
  /// cache is not configured.
  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;
  int64_t CacheEvictions = 0;
  int64_t CacheBytes = 0;
  std::string Prometheus;
};

/// {"type":"stats",...} line with live queue state, propagation-cache
/// counters, and the Prometheus exposition of the daemon's metrics
/// registry.
std::string encodeServeStats(const ServeStatsInfo &S);

} // namespace genprove

#endif // GENPROVE_SERVE_REQUEST_H
