//===- serve/server.h - The verification daemon ----------------*- C++ -*-===//
///
/// \file
/// genprove_serve's engine room: a Unix-domain-socket server speaking the
/// newline-JSON protocol of serve/request.h. One accept loop (poll with a
/// short tick so stop/drain flags are honored promptly), one thread per
/// connection, and each request certified on its connection's thread:
///
///   admission   AdmissionController partitions the daemon budget and
///               sheds excess load with explicit OVERLOADED responses;
///   QoS         qosDecisionFor maps the request's remaining deadline
///               onto the rung ladder; late requests get sound DEGRADED
///               interval-box answers, never silent timeouts;
///   containment in process, one runShardAttempt at the QoS rung with
///               the resilient engine armed, which turns OOM, non-finite
///               values and the deadline into a sound, possibly widened
///               bound. Only --isolate contains crashes and hangs: the
///               attempt runs in a fork/exec'd worker under a
///               ShardSupervisor with retry/backoff and a sound
///               interval-box fallback. Slow clients are bounded by
///               write deadlines in both modes;
///   lifecycle   requestStop() (the SIGTERM handler's one call) stops the
///               accept loop, sheds the queue, drains in-flight work
///               under a deadline and flushes all ObsFlushGuard artifacts.
///
/// The full protocol and status semantics live in docs/SERVING.md.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SERVE_SERVER_H
#define GENPROVE_SERVE_SERVER_H

#include "src/serve/admission.h"
#include "src/serve/qos.h"
#include "src/serve/registry.h"
#include "src/serve/request.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace genprove {

struct ServeConfig {
  std::string SocketPath; ///< Unix-domain socket the daemon listens on
  AdmissionController::Config Admission;
  QosPolicy Qos;
  /// --isolate only: retries per request after the first worker attempt
  /// before the interval-box fallback answers (the per-request
  /// supervision ladder).
  int64_t RequestRetries = 2;
  /// --isolate only: backoff between request-level retries; interactive
  /// latencies want a much shorter ladder than the batch CLI.
  double BackoffInitialSeconds = 0.01;
  double BackoffMaxSeconds = 0.1;
  /// --isolate only: kill a worker silent for this long (catches hung
  /// propagations).
  double HeartbeatTimeoutSeconds = 2.0;
  /// Budget for writing one response to a client; a socket still blocked
  /// after this is a slow/dead client and the connection is dropped.
  double WriteTimeoutSeconds = 5.0;
  /// How long SIGTERM waits for in-flight requests before giving up.
  double DrainDeadlineSeconds = 10.0;
  /// Longest request line accepted before the typed "oversized" error.
  size_t MaxLineBytes = 1u << 20;
  /// Concurrent client connections (not requests; admission bounds those).
  int64_t MaxConnections = 64;
  /// Run propagations in supervised fork/exec worker processes (a
  /// crashing or hung propagation cannot take the daemon down) instead of
  /// directly on the connection thread.
  bool Isolate = false;
  /// Path re-exec'd for --isolate workers (normally /proc/self/exe).
  std::string ExePath = "/proc/self/exe";
  /// Honor the request "inject" field (CI fault smoke); off in production.
  /// crash, hang and oomkill need Isolate; without it they get an error.
  bool AllowInject = false;
  /// Directed rounding was enabled at startup; requests asking for sound
  /// bounds are refused unless this is on (the rounding mode is process
  /// scoped, so it cannot be toggled per request).
  bool SoundMode = false;
};

class Server {
public:
  Server(ServeConfig Config, const ModelRegistry &Registry);
  ~Server();

  /// Bind, listen and serve until requestStop(). Returns false when the
  /// socket could not be set up (message on stderr). On a clean return
  /// all connections are closed and in-flight work is drained.
  bool run();

  /// Begin graceful shutdown; async-signal-safe (one atomic store), so
  /// the SIGTERM handler can call it directly.
  void requestStop() { Stop.store(true, std::memory_order_release); }

  bool stopping() const { return Stop.load(std::memory_order_acquire); }

private:
  /// A connection thread plus its completion flag, so the accept loop can
  /// reap finished threads instead of accumulating them for the daemon's
  /// whole lifetime.
  struct ConnEntry {
    std::thread Worker;
    std::shared_ptr<std::atomic<bool>> Done;
  };

  void handleConnection(int Fd, std::shared_ptr<std::atomic<bool>> Done);
  /// One request line → one response line; true while the connection
  /// should stay open.
  bool handleLine(int Fd, const std::string &Line);
  ServeResponse runVerify(const ServeRequest &Req);
  bool writeLine(int Fd, const std::string &Line);
  /// Join threads whose connection has ended (all of them when \p All).
  void reapConnections(bool All);

  ServeConfig Cfg;
  const ModelRegistry &Registry;
  AdmissionController Admission;
  std::atomic<bool> Stop{false};
  std::atomic<int64_t> LiveConnections{0};
  int ListenFd = -1;
  std::vector<ConnEntry> Connections;
  std::mutex ConnectionsMu;
};

} // namespace genprove

#endif // GENPROVE_SERVE_SERVER_H
