//===- serve/server.cpp ---------------------------------------*- C++ -*-===//

#include "src/serve/server.h"

#include "src/core/genprove.h"
#include "src/domains/prop_cache.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/shard/process_launcher.h"
#include "src/shard/protocol.h"
#include "src/util/io.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace genprove {

namespace {

/// --isolate backoff between request-level retries: interactive latencies
/// want a much shorter ladder than the batch CLI's ShardPolicy default.
constexpr double RetryBackoffInitialSeconds = 0.01;
constexpr double RetryBackoffMaxSeconds = 0.1;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void countResponse(const std::string &Status) {
  MetricsRegistry::global()
      .counter(labeledMetricName("serve.responses", "status", Status))
      .add(1);
}

} // namespace

Server::Server(ServeConfig Config, const ModelRegistry &Models)
    : Cfg(std::move(Config)), Registry(Models), Admission(Cfg.Admission) {}

Server::~Server() {
  if (ListenFd >= 0)
    ::close(ListenFd);
  reapConnections(/*All=*/true);
}

void Server::reapConnections(bool All) {
  std::lock_guard<std::mutex> Lock(ConnectionsMu);
  auto It = Connections.begin();
  while (It != Connections.end()) {
    if (All || It->Done->load(std::memory_order_acquire)) {
      if (It->Worker.joinable())
        It->Worker.join();
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

bool Server::writeLine(int Fd, const std::string &Line) {
  static Counter &WriteTimeouts =
      MetricsRegistry::global().counter("serve.write_timeouts");
  std::string Framed = Line;
  Framed.push_back('\n');
  if (writeFullDeadline(Fd, Framed.data(), Framed.size(),
                        Cfg.WriteTimeoutSeconds))
    return true;
  WriteTimeouts.add(1);
  if (logEnabled())
    EventLog::global().emit(LogLevel::Warn, "serve.write_timeout",
                            {{"bytes", static_cast<int64_t>(Framed.size())}});
  return false;
}

ServeResponse Server::runVerify(const ServeRequest &Req) {
  static Counter &Requests = MetricsRegistry::global().counter("serve.requests");
  static Histogram &RequestSeconds =
      MetricsRegistry::global().histogram("serve.request_seconds");
  static Histogram &RunSeconds =
      MetricsRegistry::global().histogram("serve.run_seconds");

  Requests.add(1);
  const double T0 = nowSeconds();
  ServeResponse R;
  R.Id = Req.Id;

  auto Reject = [&](std::string Why) {
    R.Status = "error";
    R.Error = std::move(Why);
    countResponse(R.Status);
    return R;
  };

  const RegisteredModel *Model = Registry.find(Req.Net);
  if (!Model)
    return Reject("unknown net '" + Req.Net + "'");
  // The request is a one-shard job: an in-process attempt runs the context
  // an --isolate worker builds from it. Its engine knobs are set below,
  // once admission and QoS have decided the budget and the rung.
  ShardJob Job;
  Job.NetPaths = Model->Paths;
  Job.InputShape = Req.InputShape;
  Job.Start = Req.Start;
  Job.End = Req.End;
  Job.Specs = Req.Specs;
  ShardWorkContext Ctx;
  if (std::string Why = shardJobContext(Job, Model->Pipeline, Ctx);
      !Why.empty())
    return Reject(std::move(Why));
  if (Req.Sound && !Cfg.SoundMode)
    return Reject("sound bounds need a server started with --sound "
                  "(directed rounding is process-wide)");
  if (!Req.Inject.empty() && !Cfg.AllowInject)
    return Reject("fault injection is disabled (server runs without "
                  "--allow-inject)");
  if (!Cfg.Isolate && !Req.Inject.empty() && Req.Inject != "slow")
    return Reject("inject '" + Req.Inject +
                  "' needs a server started with --isolate (in-process "
                  "requests have no worker process to crash, hang or kill)");

  //===------------------------------------------------------------------===//
  // Admission: a budget slice and a concurrency slot, or an explicit shed.
  //===------------------------------------------------------------------===//
  const double DeadlineSeconds =
      Req.DeadlineMs > 0.0 ? Req.DeadlineMs / 1000.0 : 0.0;
  AdmissionTicket Ticket = Admission.acquire(
      static_cast<size_t>(Req.BudgetMb) << 20, DeadlineSeconds);
  R.QueueMs = Ticket.queueSeconds() * 1000.0;
  if (!Ticket.admitted()) {
    R.Status = "overloaded";
    R.Shed = Ticket.shedReason();
    R.RetryAfterMs = 100.0 * static_cast<double>(1 + Admission.queued());
    countResponse(R.Status);
    if (logEnabled())
      EventLog::global().emit(LogLevel::Warn, "serve.shed",
                              {{"id", Req.Id},
                               {"reason", shedReasonName(R.Shed)},
                               {"queue_ms", R.QueueMs}});
    return R;
  }

  //===------------------------------------------------------------------===//
  // QoS: remaining deadline → supervision rung.
  //===------------------------------------------------------------------===//
  const bool HasDeadline = DeadlineSeconds > 0.0;
  const double Remaining =
      HasDeadline ? DeadlineSeconds - Ticket.queueSeconds() : 0.0;
  const QosDecision Qos = qosDecisionFor(Remaining, HasDeadline, Cfg.Qos);
  R.Rung = Qos.Rung;

  // Injected "slow": hold the admission slot before propagating, creating
  // the queue pressure the loadgen fault mix wants to observe. The other
  // faults are worker-process faults; only --isolate gets this far with
  // one.
  if (Req.Inject == "slow")
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::clamp(Req.InjectMs, 0.0, 10000.0)));

  GenProveConfig &Conf = Ctx.Config;
  Conf.RelaxPercent = Req.RelaxPercent;
  Conf.ClusterK = Req.ClusterK;
  Conf.NodeThreshold = Req.NodeThreshold;
  Conf.Distribution =
      Req.Arcsine ? ParamDistribution::Arcsine : ParamDistribution::Uniform;
  Conf.MemoryBudgetBytes = Ticket.budgetBytes();
  Conf.Resilience = Qos.Resilience;

  const double RunStart = nowSeconds();
  std::vector<ShardResult> Results;
  ShardRunSummary Summary;

  if (Cfg.Isolate && Qos.Rung != ShardRung::IntervalBox) {
    // One supervised worker process: a crash, hang or kill costs that
    // child, is retried up the rung ladder, and ends at the sound
    // interval-box fallback at worst.
    ShardPolicy Policy;
    Policy.MaxRetries = Cfg.RequestRetries;
    Policy.BackoffInitialSeconds = RetryBackoffInitialSeconds;
    Policy.BackoffMaxSeconds = RetryBackoffMaxSeconds;
    Policy.HeartbeatTimeoutSeconds = Cfg.HeartbeatTimeoutSeconds;
    Policy.ShardDeadlineSeconds =
        (HasDeadline ? std::max(Remaining, 0.0)
                     : Cfg.Qos.DefaultRunSeconds) * 1.5 + 0.25;
    Policy.PollIntervalSeconds = 0.005;

    Job.Config = Conf;
    // The worker's first attempt fails, so the supervised retry
    // demonstrably recovers; slow was served above.
    if (Req.Inject != "slow")
      Job.Fault.Mode = Req.Inject;
    std::optional<ShardRunSummary> Run =
        superviseShardJob(std::move(Job), Model->Pipeline, Policy,
                          Cfg.ExePath);
    if (!Run)
      return Reject("cannot stage worker spec file");
    Summary = std::move(*Run);
    Results = Summary.Results;
  } else {
    // In process, the request is one attempt on this connection thread at
    // its QoS rung. The resilient engine turns OOM, non-finite values and
    // the deadline into a sound, possibly widened bound by itself; the
    // interval-box rung is budget-exempt and cannot fail at all.
    AttemptPlan Plan;
    Plan.Rung = Qos.Rung;
    Results.push_back(runShardAttempt(Ctx, Plan));
  }

  const double RunDone = nowSeconds();
  MergedCertificate Merged =
      mergeShardResults(Results, static_cast<int64_t>(Ctx.Specs.size()));
  const bool Degraded = Merged.Degraded || Summary.Degraded ||
                        Qos.Rung == ShardRung::IntervalBox;
  // Report the coarsest rung that actually ran: the QoS decision, or the
  // rung retries escalated to.
  int64_t FinalRung = static_cast<int64_t>(Qos.Rung);
  for (const ShardResult &Res : Results)
    FinalRung = std::max(FinalRung, Res.Rung);
  R.Rung = shardRungFromInt(FinalRung);

  for (size_t I = 0; I < Ctx.Specs.size(); ++I) {
    ProbBounds Bounds = Merged.Specs[I];
    Bounds.Degraded = Bounds.Degraded || Degraded;
    if (Req.Deterministic)
      Bounds = Bounds.deterministic();
    ServeSpecBounds B;
    B.Lower = Bounds.Lower;
    B.Upper = Bounds.Upper;
    B.Degraded = Bounds.Degraded;
    B.Verdict = verdictText(Bounds, Req.Deterministic);
    R.Specs.push_back(std::move(B));
  }
  R.Status = Degraded ? "degraded" : "ok";
  R.RunMs = (RunDone - RunStart) * 1000.0;

  Ticket.release();
  countResponse(R.Status);
  MetricsRegistry::global()
      .counter(labeledMetricName("serve.rung", "rung", shardRungName(R.Rung)))
      .add(1);
  RunSeconds.record(RunDone - RunStart);
  RequestSeconds.record(nowSeconds() - T0);
  if (logEnabled())
    EventLog::global().emit(LogLevel::Info, "serve.request",
                            {{"id", Req.Id},
                             {"net", Req.Net},
                             {"status", R.Status},
                             {"rung", shardRungName(R.Rung)},
                             {"queue_ms", R.QueueMs},
                             {"run_ms", R.RunMs},
                             {"restarts", Summary.Restarts},
                             {"fallbacks", Summary.Fallbacks}});
  return R;
}

bool Server::handleLine(int Fd, const std::string &Line) {
  ServeRequest Req;
  std::string Code, Detail;
  if (!decodeServeRequest(Line, Req, &Code, &Detail)) {
    MetricsRegistry::global().counter("serve.bad_requests").add(1);
    return writeLine(Fd, encodeServeError(Code, Detail));
  }
  switch (Req.Type) {
  case ServeRequest::Kind::Ping:
    return writeLine(Fd, encodeServePong());
  case ServeRequest::Kind::Stats: {
    MetricsRegistry &Reg = MetricsRegistry::global();
    const PropagationCache::Snapshot Cache =
        PropagationCache::global().snapshot();
    ServeStatsInfo S;
    S.InFlight = Admission.inFlight();
    S.Queued = Admission.queued();
    S.Draining = Admission.draining();
    S.Requests = Reg.counter("serve.requests").value();
    S.Shed = Reg.counter("serve.shed").value();
    S.CacheHits = Cache.Hits;
    S.CacheMisses = Cache.Misses;
    S.CacheEvictions = Cache.Evictions;
    S.CacheBytes = static_cast<int64_t>(Cache.Bytes);
    S.Prometheus = Reg.toPrometheus();
    return writeLine(Fd, encodeServeStats(S));
  }
  case ServeRequest::Kind::Verify:
    return writeLine(Fd, encodeServeResponse(runVerify(Req)));
  }
  return true;
}

void Server::handleConnection(int Fd,
                              std::shared_ptr<std::atomic<bool>> Done) {
  static Counter &WireErrors =
      MetricsRegistry::global().counter("serve.wire_errors");
  LineFramer Framer(Cfg.MaxLineBytes);
  std::vector<char> Buf(64 * 1024);
  bool Open = true;
  while (Open && !stopping()) {
    struct pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    const int N = ::poll(&P, 1, 100);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      continue;
    const ssize_t Got = readChunk(Fd, Buf.data(), Buf.size());
    if (Got < 0)
      break;
    if (Got == 0) {
      // EOF. A partial trailing line is a wire error worth counting even
      // though the peer is gone and cannot hear about it.
      if (Framer.finish() != WireError::None)
        WireErrors.add(1);
      break;
    }
    Framer.feed(Buf.data(), static_cast<size_t>(Got));
    std::string Line;
    LineFramer::Frame F;
    while (Open && (F = Framer.next(Line)) != LineFramer::Frame::None) {
      if (F == LineFramer::Frame::Oversized) {
        WireErrors.add(1);
        Open = writeLine(
            Fd, encodeServeError("oversized",
                                 "request line exceeds the frame cap"));
        continue;
      }
      Open = handleLine(Fd, Line);
    }
  }
  ::close(Fd);
  LiveConnections.fetch_sub(1, std::memory_order_relaxed);
  Done->store(true, std::memory_order_release);
}

bool Server::run() {
  ignoreSigPipe();
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::fprintf(stderr, "genprove_serve: socket: %s\n", std::strerror(errno));
    return false;
  }
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Cfg.SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "genprove_serve: socket path too long: %s\n",
                 Cfg.SocketPath.c_str());
    return false;
  }
  std::strncpy(Addr.sun_path, Cfg.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ::unlink(Cfg.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(ListenFd, 128) != 0) {
    std::fprintf(stderr, "genprove_serve: bind/listen %s: %s\n",
                 Cfg.SocketPath.c_str(), std::strerror(errno));
    return false;
  }
  if (logEnabled())
    EventLog::global().emit(
        LogLevel::Info, "serve.start",
        {{"socket", Cfg.SocketPath},
         {"models", static_cast<int64_t>(Registry.size())},
         {"isolate", Cfg.Isolate}});

  static Counter &Accepted =
      MetricsRegistry::global().counter("serve.connections");
  while (!stopping()) {
    struct pollfd P;
    P.fd = ListenFd;
    P.events = POLLIN;
    P.revents = 0;
    const int N = ::poll(&P, 1, 100);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0 || !(P.revents & POLLIN))
      continue;
    const int Client = ::accept(ListenFd, nullptr, nullptr);
    if (Client < 0)
      continue;
    if (LiveConnections.load(std::memory_order_relaxed) >=
        Cfg.MaxConnections) {
      // Connection-level shed: cheaper than a thread, still an answer.
      writeLine(Client, encodeServeError("overloaded",
                                         "too many client connections"));
      ::close(Client);
      MetricsRegistry::global().counter("serve.shed").add(1);
      continue;
    }
    LiveConnections.fetch_add(1, std::memory_order_relaxed);
    Accepted.add(1);
    reapConnections(/*All=*/false);
    ConnEntry Entry;
    Entry.Done = std::make_shared<std::atomic<bool>>(false);
    Entry.Worker =
        std::thread(&Server::handleConnection, this, Client, Entry.Done);
    std::lock_guard<std::mutex> Lock(ConnectionsMu);
    Connections.push_back(std::move(Entry));
  }

  //===------------------------------------------------------------------===//
  // Graceful drain: stop accepting, shed the queue, let in-flight work
  // finish under the drain deadline, then flush every telemetry artifact.
  //===------------------------------------------------------------------===//
  if (logEnabled())
    EventLog::global().emit(LogLevel::Info, "serve.drain_begin",
                            {{"inflight", Admission.inFlight()},
                             {"queued", Admission.queued()}});
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(Cfg.SocketPath.c_str());
  Admission.beginDrain();
  const bool Drained = Admission.awaitIdle(Cfg.DrainDeadlineSeconds);
  // Past the deadline, stuck --isolate requests end the way a second
  // signal ends them (workers killed, job files removed), but each still
  // gets its interval-box fallback answer, so the connection threads
  // joined below wait for nothing else.
  if (!Drained)
    abandonShardRuns(true);
  reapConnections(/*All=*/true);
  abandonShardRuns(false);
  if (logEnabled())
    EventLog::global().emit(LogLevel::Info, "serve.drain_end",
                            {{"drained", Drained}});
  ObsFlushGuard::flushNow();
  return true;
}

} // namespace genprove
