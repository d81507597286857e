//===- tests/serve_test.cpp - the verification daemon --------------------===//
///
/// The serving layer bottom-up: the table-driven deadline→rung QoS map
/// (including the zero-time interval-box band), admission control
/// (budget slicing, bounded queue, FIFO order, shed reasons, drain),
/// the wire codec (verify round-trip, typed malformed/bad_request
/// errors, worker-spec round-trip), and an end-to-end Unix-socket test:
/// a live Server answering ping/verify/stats, shedding under load,
/// surviving injected faults in --isolate worker processes, refusing them
/// in process, and draining on requestStop.

#include "src/domains/prop_cache.h"
#include "src/nn/linear.h"
#include "src/nn/serialize.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/serve/admission.h"
#include "src/serve/qos.h"
#include "src/serve/registry.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace genprove {
namespace {

// ---------------------------------------------------------------------------
// QoS: the deadline→rung ladder.
// ---------------------------------------------------------------------------

TEST(ServeQos, DeadlineMapsOntoRungLadder) {
  QosPolicy Policy; // floors: resilient 0.25s, box 0.05s
  struct Case {
    double Remaining;
    bool HasDeadline;
    ShardRung Want;
    bool WantFullBox;
  };
  const Case Cases[] = {
      // No deadline: always the configured rung, bounded by DefaultRun.
      {0.0, false, ShardRung::Configured, false},
      {-5.0, false, ShardRung::Configured, false},
      // Comfortable deadlines stay at full fidelity.
      {10.0, true, ShardRung::Configured, false},
      {0.2501, true, ShardRung::Configured, false},
      // The resilient band; the boundary lands on the coarser rung.
      {0.25, true, ShardRung::Resilient, false},
      {0.1, true, ShardRung::Resilient, false},
      {0.0501, true, ShardRung::Resilient, false},
      // The box band, including exactly zero and already-late requests:
      // a sound answer is still owed, never a silent timeout.
      {0.05, true, ShardRung::IntervalBox, true},
      {0.01, true, ShardRung::IntervalBox, true},
      {0.0, true, ShardRung::IntervalBox, true},
      {-1.0, true, ShardRung::IntervalBox, true},
  };
  for (const Case &C : Cases) {
    const QosDecision D = qosDecisionFor(C.Remaining, C.HasDeadline, Policy);
    EXPECT_EQ(D.Rung, C.Want)
        << "remaining=" << C.Remaining << " hasDeadline=" << C.HasDeadline;
    EXPECT_EQ(D.Resilience.StartAtFullBox, C.WantFullBox)
        << "remaining=" << C.Remaining;
    // An admitted request must terminate soundly no matter what the
    // engine hits: serving always arms resilience.
    EXPECT_TRUE(D.Resilience.Enabled);
    EXPECT_GE(D.Resilience.DeadlineSeconds, 0.0);
  }
  // No deadline → the policy's default engine deadline applies.
  const QosDecision Free = qosDecisionFor(0.0, false, Policy);
  EXPECT_DOUBLE_EQ(Free.Resilience.DeadlineSeconds, Policy.DefaultRunSeconds);
  // With a deadline, the engine deadline is the remaining time.
  const QosDecision Tight = qosDecisionFor(0.1, true, Policy);
  EXPECT_DOUBLE_EQ(Tight.Resilience.DeadlineSeconds, 0.1);
  // Already late: deadline clamps at zero rather than going negative.
  const QosDecision Late = qosDecisionFor(-1.0, true, Policy);
  EXPECT_DOUBLE_EQ(Late.Resilience.DeadlineSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(ServeAdmission, SlicesBudgetFairlyAndReleasesIt) {
  AdmissionController::Config C;
  C.BudgetBytes = 400;
  C.MaxConcurrent = 4;
  AdmissionController A(C);

  AdmissionTicket T1 = A.acquire(0, 0.0);
  ASSERT_TRUE(T1.admitted());
  EXPECT_EQ(T1.budgetBytes(), 100u); // fair share 400/4
  // A request asking for less than its fair share gets its ask.
  AdmissionTicket T2 = A.acquire(60, 0.0);
  ASSERT_TRUE(T2.admitted());
  EXPECT_EQ(T2.budgetBytes(), 60u);
  EXPECT_EQ(A.inFlight(), 2);
  T1.release();
  T2.release();
  EXPECT_EQ(A.inFlight(), 0);
  // Released budget is available again in full.
  AdmissionTicket T3 = A.acquire(400, 0.0);
  ASSERT_TRUE(T3.admitted());
  EXPECT_EQ(T3.budgetBytes(), 100u); // still capped at the fair share
}

TEST(ServeAdmission, ShedsWhenQueueIsFullAndOnDrain) {
  AdmissionController::Config C;
  C.MaxConcurrent = 1;
  C.MaxQueue = 0; // no waiting room: second request sheds immediately
  AdmissionController A(C);

  AdmissionTicket Holder = A.acquire(0, 0.0);
  ASSERT_TRUE(Holder.admitted());
  AdmissionTicket Shed = A.acquire(0, 0.0);
  EXPECT_FALSE(Shed.admitted());
  EXPECT_EQ(Shed.shedReason(), ShedReason::QueueFull);

  A.beginDrain();
  AdmissionTicket Drained = A.acquire(0, 0.0);
  EXPECT_FALSE(Drained.admitted());
  EXPECT_EQ(Drained.shedReason(), ShedReason::Draining);
  EXPECT_FALSE(A.awaitIdle(0.01)); // the holder is still running
  Holder.release();
  EXPECT_TRUE(A.awaitIdle(1.0));
}

TEST(ServeAdmission, QueuedRequestShedsOnItsOwnDeadline) {
  AdmissionController::Config C;
  C.MaxConcurrent = 1;
  C.MaxQueue = 4;
  C.MaxQueueWaitSeconds = 30.0; // the request deadline is the binding bound
  AdmissionController A(C);

  AdmissionTicket Holder = A.acquire(0, 0.0);
  ASSERT_TRUE(Holder.admitted());
  const auto T0 = std::chrono::steady_clock::now();
  AdmissionTicket Waited = A.acquire(0, 0.05);
  const double Secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  EXPECT_FALSE(Waited.admitted());
  EXPECT_EQ(Waited.shedReason(), ShedReason::Timeout);
  EXPECT_GE(Secs, 0.04);
  EXPECT_LT(Secs, 5.0);
}

TEST(ServeAdmission, WaitersAdmitInFifoOrderAsSlotsFree) {
  AdmissionController::Config C;
  C.MaxConcurrent = 1;
  C.MaxQueue = 8;
  AdmissionController A(C);

  AdmissionTicket Holder = A.acquire(0, 0.0);
  ASSERT_TRUE(Holder.admitted());

  std::vector<int> Order;
  std::mutex OrderMu;
  std::vector<std::thread> Waiters;
  for (int I = 0; I < 3; ++I) {
    Waiters.emplace_back([&, I] {
      // Stagger arrivals so FIFO sequence numbers are deterministic.
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * (I + 1)));
      AdmissionTicket T = A.acquire(0, 0.0);
      ASSERT_TRUE(T.admitted());
      {
        std::lock_guard<std::mutex> Lock(OrderMu);
        Order.push_back(I);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      T.release();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Holder.release();
  for (std::thread &T : Waiters)
    T.join();
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0], 0);
  EXPECT_EQ(Order[1], 1);
  EXPECT_EQ(Order[2], 2);
}

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(ServeCodec, VerifyRequestRoundTripsThroughJson) {
  const std::string Line =
      "{\"type\":\"verify\",\"id\":\"r1\",\"net\":\"tiny\","
      "\"input_shape\":\"1x3\",\"start\":[0.0,0.5,-1.0],"
      "\"end\":[1.0,0.25,2.0],\"specs\":[\"argmax:0:2\"],"
      "\"deadline_ms\":250,\"budget_mb\":64,\"p\":0.02,\"k\":50,"
      "\"deterministic\":true,\"arcsine\":true}";
  ServeRequest Req;
  std::string Code, Detail;
  ASSERT_TRUE(decodeServeRequest(Line, Req, &Code, &Detail)) << Detail;
  EXPECT_EQ(Req.Type, ServeRequest::Kind::Verify);
  EXPECT_EQ(Req.Id, "r1");
  EXPECT_EQ(Req.Net, "tiny");
  EXPECT_EQ(Req.InputShape, "1x3");
  ASSERT_EQ(Req.Start.size(), 3u);
  EXPECT_DOUBLE_EQ(Req.Start[1], 0.5);
  EXPECT_DOUBLE_EQ(Req.End[2], 2.0);
  ASSERT_EQ(Req.Specs.size(), 1u);
  EXPECT_DOUBLE_EQ(Req.DeadlineMs, 250.0);
  EXPECT_EQ(Req.BudgetMb, 64);
  EXPECT_TRUE(Req.Deterministic);
  EXPECT_TRUE(Req.Arcsine);
}

TEST(ServeCodec, BadRequestsGetTypedErrors) {
  ServeRequest Req;
  std::string Code, Detail;
  // Not JSON at all.
  EXPECT_FALSE(decodeServeRequest("not json", Req, &Code, &Detail));
  EXPECT_EQ(Code, "malformed");
  // Valid JSON, invalid request.
  EXPECT_FALSE(decodeServeRequest("{\"type\":\"verify\"}", Req, &Code,
                                  &Detail));
  EXPECT_EQ(Code, "bad_request");
  // Mismatched start/end lengths.
  EXPECT_FALSE(decodeServeRequest(
      "{\"type\":\"verify\",\"net\":\"n\",\"input_shape\":\"1x2\","
      "\"start\":[0,0],\"end\":[1],\"specs\":[\"argmax:0:2\"]}",
      Req, &Code, &Detail));
  EXPECT_EQ(Code, "bad_request");
  // A spec that does not parse is refused up front.
  EXPECT_FALSE(decodeServeRequest(
      "{\"type\":\"verify\",\"net\":\"n\",\"input_shape\":\"1x1\","
      "\"start\":[0],\"end\":[1],\"specs\":[\"argmax:9:bogus\"]}",
      Req, &Code, &Detail));
  EXPECT_EQ(Code, "bad_request");
  // Unknown inject modes are refused, not ignored.
  EXPECT_FALSE(decodeServeRequest(
      "{\"type\":\"verify\",\"net\":\"n\",\"input_shape\":\"1x1\","
      "\"start\":[0],\"end\":[1],\"specs\":[\"argmax:0:2\"],"
      "\"inject\":\"meltdown\"}",
      Req, &Code, &Detail));
  EXPECT_EQ(Code, "bad_request");
}

TEST(ServeCodec, ResponseEncodingCarriesStatusFields) {
  ServeResponse R;
  R.Id = "r9";
  R.Status = "overloaded";
  R.Shed = ShedReason::QueueFull;
  R.RetryAfterMs = 250.0;
  const std::string Line = encodeServeResponse(R);
  EXPECT_NE(Line.find("\"status\":\"overloaded\""), std::string::npos);
  EXPECT_NE(Line.find("\"retry_after_ms\""), std::string::npos);
  EXPECT_NE(Line.find("\"shed_reason\":\"queue-full\""), std::string::npos);
  // Non-overloaded responses do not carry the shed fields.
  R.Status = "ok";
  const std::string Ok = encodeServeResponse(R);
  EXPECT_EQ(Ok.find("retry_after_ms"), std::string::npos);
}

TEST(ServeCodec, WorkerSpecRoundTrips) {
  ServeWorkerSpec S;
  S.NetPaths = {"/tmp/a.gpn", "/tmp/b.gpn"};
  S.InputShape = "1x4";
  S.Start = {0.0, 0.25, -1.5, 3.0};
  S.End = {1.0, 0.5, 1.5, -3.0};
  S.Specs = {"argmax:0:3", "sign:1:+:4"};
  S.BudgetBytes = 1u << 20;
  S.DeadlineSeconds = 1.5;
  S.RelaxPercent = 0.02;
  S.ClusterK = 42.0;
  S.NodeThreshold = 99;
  S.Arcsine = true;
  S.Sound = true;
  S.HeartbeatMs = 25.0;
  S.Inject = "crash";

  ServeWorkerSpec Out;
  std::string Err;
  ASSERT_TRUE(decodeServeWorkerSpec(encodeServeWorkerSpec(S), Out, &Err))
      << Err;
  EXPECT_EQ(Out.NetPaths, S.NetPaths);
  EXPECT_EQ(Out.InputShape, S.InputShape);
  EXPECT_EQ(Out.Start, S.Start);
  EXPECT_EQ(Out.End, S.End);
  EXPECT_EQ(Out.Specs, S.Specs);
  EXPECT_EQ(Out.BudgetBytes, S.BudgetBytes);
  EXPECT_DOUBLE_EQ(Out.DeadlineSeconds, S.DeadlineSeconds);
  EXPECT_DOUBLE_EQ(Out.RelaxPercent, S.RelaxPercent);
  EXPECT_DOUBLE_EQ(Out.ClusterK, S.ClusterK);
  EXPECT_EQ(Out.NodeThreshold, S.NodeThreshold);
  EXPECT_TRUE(Out.Arcsine);
  EXPECT_TRUE(Out.Sound);
  EXPECT_EQ(Out.Inject, "crash");
}

// ---------------------------------------------------------------------------
// End to end over a live socket.
// ---------------------------------------------------------------------------

/// Test fixture: a registered 2->2 linear model, a Server on a temp
/// socket, and a blocking line client.
class ServeEndToEnd : public ::testing::Test {
protected:
  void SetUp() override {
    // The stats path reads live counters; counting only happens while the
    // metrics plane is on (the daemon always enables it when asked for
    // metric artifacts, the test does it explicitly).
    WasMetricsEnabled = metricsEnabled();
    setMetricsEnabled(true);
    std::snprintf(NetPath, sizeof(NetPath), "/tmp/genprove-serve-test-%d.gpn",
                  static_cast<int>(::getpid()));
    std::snprintf(SocketPath, sizeof(SocketPath),
                  "/tmp/genprove-serve-test-%d.sock",
                  static_cast<int>(::getpid()));
    Sequential Net;
    auto L = std::make_unique<Linear>(2, 2);
    // argmax:0 wins exactly when x0 > x1: an identity map keeps the
    // ground truth obvious.
    L->weight() = Tensor({2, 2}, {1.0, 0.0, 0.0, 1.0});
    L->bias() = Tensor({2}, {0.0, 0.0});
    Net.add(std::move(L));
    ASSERT_TRUE(saveNetwork(Net, NetPath));

    std::string Err;
    ASSERT_TRUE(Registry.registerModel(std::string("tiny=") + NetPath, &Err))
        << Err;
  }

  void TearDown() override {
    stopServer();
    ::unlink(NetPath);
    ::unlink(SocketPath);
    setMetricsEnabled(WasMetricsEnabled);
  }

  void startServer(ServeConfig Cfg) {
    Cfg.SocketPath = SocketPath;
    Daemon = std::make_unique<Server>(Cfg, Registry);
    ServerThread = std::thread([this] { Daemon->run(); });
    // Wait for the socket to come up.
    for (int I = 0; I < 200 && !socketUp(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(socketUp());
  }

  void stopServer() {
    if (Daemon)
      Daemon->requestStop();
    if (ServerThread.joinable())
      ServerThread.join();
    Daemon.reset();
  }

  bool socketUp() {
    const int Fd = connectSocket();
    if (Fd < 0)
      return false;
    ::close(Fd);
    return true;
  }

  int connectSocket() {
    const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    struct sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, SocketPath, sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) != 0) {
      ::close(Fd);
      return -1;
    }
    return Fd;
  }

  static bool sendLine(int Fd, const std::string &Line) {
    const std::string Framed = Line + "\n";
    size_t Off = 0;
    while (Off < Framed.size()) {
      const ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                               MSG_NOSIGNAL);
      if (N < 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  static bool readLine(int Fd, std::string &Out, double TimeoutSeconds) {
    std::string Buf;
    const auto Deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(TimeoutSeconds);
    for (;;) {
      const size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Out = Buf.substr(0, Nl);
        return true;
      }
      if (std::chrono::steady_clock::now() > Deadline)
        return false;
      struct pollfd P;
      P.fd = Fd;
      P.events = POLLIN;
      P.revents = 0;
      if (::poll(&P, 1, 100) <= 0)
        continue;
      char Chunk[4096];
      const ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Send one line, read one reply, parse it.
  bool roundTrip(int Fd, const std::string &Line, JsonValue &Reply) {
    if (!sendLine(Fd, Line))
      return false;
    std::string ReplyLine;
    if (!readLine(Fd, ReplyLine, 30.0))
      return false;
    return parseJson(ReplyLine, Reply, nullptr);
  }

  static std::string verifyLine(const std::string &Id, double DeadlineMs,
                                const std::string &Inject = "") {
    std::string Line =
        "{\"type\":\"verify\",\"id\":\"" + Id +
        "\",\"net\":\"tiny\",\"input_shape\":\"1x2\","
        "\"start\":[1.0,0.0],\"end\":[2.0,0.5],"
        "\"specs\":[\"argmax:0:2\"]";
    if (DeadlineMs >= 0.0)
      Line += ",\"deadline_ms\":" + std::to_string(DeadlineMs);
    if (!Inject.empty())
      Line += ",\"inject\":\"" + Inject + "\",\"inject_ms\":100";
    Line += "}";
    return Line;
  }

  bool WasMetricsEnabled = false;
  char NetPath[128];
  char SocketPath[128];
  ModelRegistry Registry;
  std::unique_ptr<Server> Daemon;
  std::thread ServerThread;
};

TEST_F(ServeEndToEnd, PingVerifyAndStats) {
  ServeConfig Cfg;
  startServer(Cfg);
  const int Fd = connectSocket();
  ASSERT_GE(Fd, 0);

  JsonValue Reply;
  ASSERT_TRUE(roundTrip(Fd, "{\"type\":\"ping\"}", Reply));
  EXPECT_EQ(Reply.find("type")->stringOr(""), "pong");

  // On [1,0]..[2,0.5], x0 > x1 everywhere: argmax:0 holds with
  // probability one, at full fidelity.
  ASSERT_TRUE(roundTrip(Fd, verifyLine("v1", -1.0), Reply));
  EXPECT_EQ(Reply.find("status")->stringOr(""), "ok");
  EXPECT_EQ(Reply.find("rung")->stringOr(""), "configured");
  EXPECT_EQ(Reply.find("id")->stringOr(""), "v1");
  const JsonValue *Specs = Reply.find("specs");
  ASSERT_TRUE(Specs && Specs->Items.size() == 1);
  EXPECT_NEAR(Specs->Items[0].find("lower")->numberOr(-1.0), 1.0, 1e-9);
  EXPECT_NEAR(Specs->Items[0].find("upper")->numberOr(-1.0), 1.0, 1e-9);

  ASSERT_TRUE(roundTrip(Fd, "{\"type\":\"stats\"}", Reply));
  EXPECT_EQ(Reply.find("type")->stringOr(""), "stats");
  EXPECT_GE(Reply.find("requests")->intOr(-1), 1);
  EXPECT_NE(Reply.find("prometheus")->stringOr("").find("serve_requests"),
            std::string::npos);

  // Garbage on the wire costs a typed error, never the connection.
  ASSERT_TRUE(roundTrip(Fd, "{broken", Reply));
  EXPECT_EQ(Reply.find("type")->stringOr(""), "error");
  EXPECT_EQ(Reply.find("code")->stringOr(""), "malformed");
  ASSERT_TRUE(roundTrip(Fd, "{\"type\":\"ping\"}", Reply));
  EXPECT_EQ(Reply.find("type")->stringOr(""), "pong");

  ::close(Fd);
}

/// Served requests run resilient, and a clean resilient run is
/// cache-eligible: the repeat of a request is a warm start whose bounds
/// match the first answer digit for digit.
TEST_F(ServeEndToEnd, RepeatedRequestWarmStartsFromCache) {
  struct CacheScope {
    CacheScope() { PropagationCache::global().configure(16u << 20); }
    ~CacheScope() { PropagationCache::global().configure(0); }
  } Cache;
  ServeConfig Cfg;
  startServer(Cfg);
  const int Fd = connectSocket();
  ASSERT_GE(Fd, 0);

  JsonValue Reply;
  ASSERT_TRUE(roundTrip(Fd, "{\"type\":\"stats\"}", Reply));
  const int64_t HitsBefore = Reply.find("cache_hits")->intOr(-1);
  std::string Bounds[2];
  for (int I = 0; I < 2; ++I) {
    ASSERT_TRUE(roundTrip(Fd, verifyLine("r" + std::to_string(I), -1.0),
                          Reply));
    EXPECT_EQ(Reply.find("status")->stringOr(""), "ok");
    EXPECT_EQ(Reply.find("rung")->stringOr(""), "configured");
    const JsonValue *Specs = Reply.find("specs");
    ASSERT_TRUE(Specs && Specs->Items.size() == 1);
    char Text[64];
    std::snprintf(Text, sizeof(Text), "%.17g %.17g",
                  Specs->Items[0].find("lower")->numberOr(-1.0),
                  Specs->Items[0].find("upper")->numberOr(-1.0));
    Bounds[I] = Text;
  }
  EXPECT_EQ(Bounds[0], Bounds[1]);
  ASSERT_TRUE(roundTrip(Fd, "{\"type\":\"stats\"}", Reply));
  EXPECT_EQ(Reply.find("cache_hits")->intOr(-1), HitsBefore + 1);

  ::close(Fd);
}

TEST_F(ServeEndToEnd, ZeroDeadlineStillGetsSoundDegradedBounds) {
  ServeConfig Cfg;
  startServer(Cfg);
  const int Fd = connectSocket();
  ASSERT_GE(Fd, 0);

  JsonValue Reply;
  // 0.001 ms remaining: the interval-box band. The answer must be sound
  // ([l,u] containing the true probability 1) and flagged degraded.
  ASSERT_TRUE(roundTrip(Fd, verifyLine("late", 0.001), Reply));
  EXPECT_EQ(Reply.find("status")->stringOr(""), "degraded");
  EXPECT_EQ(Reply.find("rung")->stringOr(""), "interval-box");
  const JsonValue *Specs = Reply.find("specs");
  ASSERT_TRUE(Specs && Specs->Items.size() == 1);
  const double Lower = Specs->Items[0].find("lower")->numberOr(-1.0);
  const double Upper = Specs->Items[0].find("upper")->numberOr(-1.0);
  EXPECT_GE(Lower, 0.0);
  EXPECT_LE(Upper, 1.0);
  EXPECT_LE(Lower, 1.0);
  EXPECT_GE(Upper, 1.0 - 1e-9); // must still contain the truth
  EXPECT_TRUE(Specs->Items[0].find("degraded")->boolOr(false));

  ::close(Fd);
}

/// Crash, oomkill and hang hit real --isolate worker processes (the built
/// genprove_serve, re-exec'd in --worker-request mode).
TEST_F(ServeEndToEnd, InjectedCrashIsRetriedToASoundAnswer) {
  ServeConfig Cfg;
  Cfg.AllowInject = true;
  Cfg.Isolate = true;
  Cfg.ExePath = GENPROVE_SERVE_EXE;
  Cfg.HeartbeatTimeoutSeconds = 0.3; // fast hang detection for the test
  startServer(Cfg);
  const int Fd = connectSocket();
  ASSERT_GE(Fd, 0);

  JsonValue Reply;
  for (const char *Fault : {"crash", "oomkill", "hang"}) {
    ASSERT_TRUE(roundTrip(Fd, verifyLine(Fault, -1.0, Fault), Reply))
        << Fault;
    // The attempt-0 fault is contained and retried; the answer is
    // degraded (supervision was not clean) but present and sound.
    EXPECT_EQ(Reply.find("status")->stringOr(""), "degraded") << Fault;
    const JsonValue *Specs = Reply.find("specs");
    ASSERT_TRUE(Specs && Specs->Items.size() == 1) << Fault;
    EXPECT_GE(Specs->Items[0].find("upper")->numberOr(-1.0), 1.0 - 1e-9)
        << Fault;
  }
  ::close(Fd);
}

/// Injection needs --allow-inject; in process, only "slow" (a server-side
/// sleep) is honored, and the worker-process faults name --isolate.
TEST_F(ServeEndToEnd, InjectionRefusedWithoutAllowInject) {
  struct Case {
    bool AllowInject;
    const char *Fault;
    const char *Status;
  };
  const Case Cases[] = {
      {false, "crash", "error"}, {false, "slow", "error"},
      {true, "crash", "error"},  {true, "hang", "error"},
      {true, "oomkill", "error"}, {true, "slow", "ok"},
  };
  for (const Case &C : Cases) {
    ServeConfig Cfg;
    Cfg.AllowInject = C.AllowInject;
    startServer(Cfg);
    const int Fd = connectSocket();
    ASSERT_GE(Fd, 0);
    JsonValue Reply;
    ASSERT_TRUE(roundTrip(Fd, verifyLine(C.Fault, -1.0, C.Fault), Reply))
        << C.Fault;
    EXPECT_EQ(Reply.find("status")->stringOr(""), C.Status)
        << C.Fault << ", allow_inject " << C.AllowInject;
    if (C.AllowInject && std::string(C.Status) == "error") {
      const JsonValue *Why = Reply.find("error");
      ASSERT_NE(Why, nullptr) << C.Fault;
      EXPECT_NE(Why->stringOr("").find("--isolate"), std::string::npos)
          << C.Fault;
    }
    ::close(Fd);
    stopServer();
  }
}

/// Old clients may still send "fast_screen": the daemon ignores the key,
/// so the request runs at the configured rung with the same bounds, bit
/// for bit, as one without it.
TEST_F(ServeEndToEnd, FastScreenKeyIsIgnored) {
  ServeConfig Cfg;
  startServer(Cfg);
  const int Fd = connectSocket();
  ASSERT_GE(Fd, 0);

  std::string WithKey = verifyLine("with-key", -1.0);
  WithKey.insert(WithKey.size() - 1, ",\"fast_screen\":true");
  const std::string Lines[2] = {verifyLine("without-key", -1.0), WithKey};
  std::string Bounds[2];
  for (int I = 0; I < 2; ++I) {
    JsonValue Reply;
    ASSERT_TRUE(roundTrip(Fd, Lines[I], Reply));
    EXPECT_EQ(Reply.find("status")->stringOr(""), "ok");
    EXPECT_EQ(Reply.find("rung")->stringOr(""), "configured");
    const JsonValue *Specs = Reply.find("specs");
    ASSERT_TRUE(Specs && Specs->Items.size() == 1);
    char Text[64];
    std::snprintf(Text, sizeof(Text), "%.17g %.17g",
                  Specs->Items[0].find("lower")->numberOr(-1.0),
                  Specs->Items[0].find("upper")->numberOr(-1.0));
    Bounds[I] = Text;
  }
  EXPECT_EQ(Bounds[0], Bounds[1]);
  ::close(Fd);
}

TEST_F(ServeEndToEnd, OverloadShedsWithExplicitResponse) {
  ServeConfig Cfg;
  Cfg.AllowInject = true;
  Cfg.Admission.MaxConcurrent = 1;
  Cfg.Admission.MaxQueue = 0;
  startServer(Cfg);

  // One slow request to occupy the single slot...
  const int Slow = connectSocket();
  ASSERT_GE(Slow, 0);
  ASSERT_TRUE(sendLine(Slow, verifyLine("slow", -1.0, "slow")));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // ...then a second one, which must shed immediately and explicitly.
  const int Fd = connectSocket();
  ASSERT_GE(Fd, 0);
  JsonValue Reply;
  ASSERT_TRUE(roundTrip(Fd, verifyLine("shedme", -1.0), Reply));
  EXPECT_EQ(Reply.find("status")->stringOr(""), "overloaded");
  EXPECT_EQ(Reply.find("shed_reason")->stringOr(""), "queue-full");
  EXPECT_GT(Reply.find("retry_after_ms")->numberOr(0.0), 0.0);

  // The slow request still completes: shedding is loss of *capacity*,
  // never loss of admitted work.
  std::string SlowReply;
  ASSERT_TRUE(readLine(Slow, SlowReply, 30.0));
  JsonValue SlowParsed;
  ASSERT_TRUE(parseJson(SlowReply, SlowParsed, nullptr));
  const std::string SlowStatus = SlowParsed.find("status")->stringOr("");
  EXPECT_TRUE(SlowStatus == "ok" || SlowStatus == "degraded") << SlowStatus;

  ::close(Fd);
  ::close(Slow);
}

TEST_F(ServeEndToEnd, DrainAnswersInFlightThenStops) {
  ServeConfig Cfg;
  Cfg.AllowInject = true;
  Cfg.DrainDeadlineSeconds = 10.0;
  startServer(Cfg);

  const int Fd = connectSocket();
  ASSERT_GE(Fd, 0);
  // A request that holds its slot for ~300ms...
  ASSERT_TRUE(sendLine(Fd, verifyLine("inflight", -1.0, "slow")));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...and a SIGTERM-equivalent mid-flight.
  Daemon->requestStop();

  // The in-flight request is still answered before the server exits.
  std::string Reply;
  EXPECT_TRUE(readLine(Fd, Reply, 30.0));
  ::close(Fd);

  stopServer();
  // The socket is gone: new connections are refused after drain.
  EXPECT_LT(connectSocket(), 0);
}

} // namespace
} // namespace genprove
