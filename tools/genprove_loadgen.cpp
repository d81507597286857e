//===- tools/genprove_loadgen.cpp - Serve load generator -------*- C++ -*-===//
///
/// \file
/// Concurrent load generator and fault harness for genprove_serve: N
/// client threads hammer the daemon's Unix socket with verify requests
/// under a configurable mix of deadlines (exercising every QoS rung),
/// injected worker faults (crash/hang/oomkill/slow, when the daemon runs
/// --allow-inject) and client-side wire faults (malformed JSON, oversized
/// lines, mid-line disconnects). OVERLOADED responses are retried with
/// jittered exponential backoff honoring the server's retry_after_ms
/// hint.
///
/// The contract it checks is the serving contract: every request gets an
/// answer — CERTIFIED, DEGRADED-but-sound, or an explicit OVERLOADED /
/// typed error — and sound bounds stay inside [0,1] (optionally around a
/// --expect-contain reference probability). Results, latency percentiles
/// and shed counts are written as JSON (BENCH_serve.json in CI).
///
//===----------------------------------------------------------------------===//

#include "src/obs/json.h"
#include "src/util/parse.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace genprove;

namespace {

[[noreturn]] void usage(const char *Error = nullptr) {
  if (Error)
    std::fprintf(stderr, "genprove_loadgen: %s\n\n", Error);
  std::fprintf(
      stderr,
      "usage: genprove_loadgen --socket PATH --net NAME --dims N "
      "--spec TEXT [options]\n"
      "\n"
      "  --socket PATH        daemon socket\n"
      "  --net NAME           registered model name\n"
      "  --dims N             latent dimension (input_shape 1xN; start/end\n"
      "                       vectors are generated deterministically)\n"
      "  --spec TEXT          output spec (repeatable)\n"
      "  --clients N          concurrent client threads (default 8)\n"
      "  --requests N         verify requests per client (default 10)\n"
      "  --deadline-ms T      base request deadline; the mix also sends\n"
      "                       no-deadline, tight and zero deadlines\n"
      "                       (default 2000)\n"
      "  --budget-mb N        per-request budget ask (default 0 = server)\n"
      "  --p P --k K          engine knobs forwarded per request\n"
      "  --inject-every K     every Kth request carries an injected fault,\n"
      "                       cycling crash/hang/oomkill/slow (0 = never;\n"
      "                       daemon must run --allow-inject)\n"
      "  --wire-faults        each client also sends one malformed line,\n"
      "                       one oversized line, and one mid-line\n"
      "                       disconnect\n"
      "  --max-retries N      overload retries per request (default 5)\n"
      "  --expect-contain P   fail unless every sound bound contains P\n"
      "  --repeat-mix N       draw each request's segment from a pool of N\n"
      "                       distinct variants with a Zipf-ish rank\n"
      "                       distribution (rank r weighted 1/(r+1)), so\n"
      "                       hot segments repeat (docs/SERVING.md).\n"
      "                       0 (default) sends the one legacy segment\n"
      "  --seed S             RNG seed (default 7)\n"
      "  --out PATH           JSON results file (default BENCH_serve.json)\n");
  std::exit(2);
}

/// A numeric flag value; a malformed number is a usage error (exit 2).
template <typename T> T numberArg(const std::string &Flag,
                                  const std::string &Text) {
  T Value{};
  if (!parseNumber(Text, Value))
    usage((Flag + " wants a number, got '" + Text + "'").c_str());
  return Value;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// A minimal blocking line client over the Unix socket.
//===----------------------------------------------------------------------===//

class LineClient {
public:
  explicit LineClient(std::string Path) : Path(std::move(Path)) {}
  ~LineClient() { disconnect(); }

  bool connect() {
    disconnect();
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    struct sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) != 0) {
      disconnect();
      return false;
    }
    return true;
  }

  void disconnect() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Buffer.clear();
  }

  bool connected() const { return Fd >= 0; }

  bool sendRaw(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      const ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                               MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  bool sendLine(const std::string &Line) { return sendRaw(Line + "\n"); }

  /// Read one newline-terminated response; false on timeout/EOF/error.
  bool readLine(std::string &Out, double TimeoutSeconds) {
    const double Deadline = nowSeconds() + TimeoutSeconds;
    for (;;) {
      const size_t Nl = Buffer.find('\n');
      if (Nl != std::string::npos) {
        Out = Buffer.substr(0, Nl);
        Buffer.erase(0, Nl + 1);
        return true;
      }
      const double Left = Deadline - nowSeconds();
      if (Left <= 0.0)
        return false;
      struct pollfd P;
      P.fd = Fd;
      P.events = POLLIN;
      P.revents = 0;
      const int R = ::poll(&P, 1,
                           static_cast<int>(std::min(Left * 1000.0, 250.0)));
      if (R < 0 && errno != EINTR)
        return false;
      if (R <= 0)
        continue;
      char Chunk[16384];
      const ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      if (N == 0)
        return false; // server closed on us
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  std::string Path;
  int Fd = -1;
  std::string Buffer;
};

//===----------------------------------------------------------------------===//
// Shared tallies.
//===----------------------------------------------------------------------===//

struct Tally {
  std::mutex Mu;
  std::vector<double> LatenciesMs;
  int64_t Sent = 0;
  int64_t Ok = 0;
  int64_t Degraded = 0;
  int64_t Overloaded = 0; ///< final answer after retries was a shed
  int64_t Errors = 0;     ///< typed error responses
  int64_t Unanswered = 0; ///< the one count that must stay zero
  int64_t Retries = 0;
  int64_t WireFaultsSent = 0;
  int64_t SoundnessViolations = 0;
  int64_t Injected = 0;
};

struct GenOptions {
  std::string Socket;
  std::string Net;
  int64_t Dims = 0;
  std::vector<std::string> Specs;
  int64_t Clients = 8;
  int64_t Requests = 10;
  double DeadlineMs = 2000.0;
  int64_t BudgetMb = 0;
  double RelaxP = 0.0;
  double ClusterK = 100.0;
  int64_t InjectEvery = 0;
  bool WireFaults = false;
  int64_t MaxRetries = 5;
  bool HaveExpect = false;
  double ExpectContain = 0.0;
  int64_t RepeatMix = 0;
  uint64_t Seed = 7;
  std::string OutPath = "BENCH_serve.json";
};

/// Zipf-ish variant pick: rank r in [0, N) weighted 1/(r+1), so variant 0
/// is the hot segment and the tail thins out harmonically.
int64_t pickVariant(int64_t N, std::mt19937_64 &Rng) {
  if (N <= 1)
    return 0;
  double Total = 0.0;
  for (int64_t R = 0; R < N; ++R)
    Total += 1.0 / static_cast<double>(R + 1);
  std::uniform_real_distribution<double> Uniform(0.0, Total);
  double U = Uniform(Rng);
  for (int64_t R = 0; R < N; ++R) {
    U -= 1.0 / static_cast<double>(R + 1);
    if (U <= 0.0)
      return R;
  }
  return N - 1;
}

std::string buildVerifyLine(const GenOptions &Opt, const std::string &Id,
                            double DeadlineMs, const std::string &Inject,
                            int64_t Variant = 0) {
  // Variant 0 reproduces the legacy segment exactly; other variants
  // shift both endpoints by a small per-variant delta, so a --repeat-mix
  // pool is N genuinely distinct queries (distinct cache keys) while
  // staying inside the same latent neighborhood.
  const double Delta = 0.003 * static_cast<double>(Variant);
  JsonWriter W;
  W.beginObject();
  W.key("type").value("verify");
  W.key("id").value(Id);
  W.key("net").value(Opt.Net);
  W.key("input_shape").value("1x" + std::to_string(Opt.Dims));
  W.key("start").beginArray();
  for (int64_t J = 0; J < Opt.Dims; ++J)
    W.value(-0.5 + 0.01 * static_cast<double>(J % 7) + Delta);
  W.endArray();
  W.key("end").beginArray();
  for (int64_t J = 0; J < Opt.Dims; ++J)
    W.value(0.5 - 0.01 * static_cast<double>(J % 5) + Delta);
  W.endArray();
  W.key("specs").beginArray();
  for (const std::string &S : Opt.Specs)
    W.value(S);
  W.endArray();
  if (DeadlineMs >= 0.0)
    W.key("deadline_ms").value(DeadlineMs);
  if (Opt.BudgetMb > 0)
    W.key("budget_mb").value(Opt.BudgetMb);
  W.key("p").value(Opt.RelaxP);
  W.key("k").value(Opt.ClusterK);
  if (!Inject.empty()) {
    W.key("inject").value(Inject);
    W.key("inject_ms").value(300.0);
  }
  W.endObject();
  return W.str();
}

/// Deadline mix by request index: the fleet exercises every QoS rung.
/// Index 0 mod 5 → no deadline; 1..2 → comfortable; 3 → tight (resilient
/// band); 4 → zero (interval-box band).
double deadlineForIndex(int64_t Index, double BaseMs) {
  switch (Index % 5) {
  case 0:
    return -1.0; // none
  case 3:
    return 180.0;
  case 4:
    return 1.0;
  default:
    return BaseMs;
  }
}

void clientMain(const GenOptions &Opt, int64_t ClientId, Tally &T) {
  std::mt19937_64 Rng(Opt.Seed * 1000003 + static_cast<uint64_t>(ClientId));
  std::uniform_real_distribution<double> Jitter(0.5, 1.5);
  LineClient Client(Opt.Socket);

  static const char *InjectCycle[] = {"crash", "hang", "oomkill", "slow"};

  //===------------------------------------------------------------------===//
  // Wire-fault salvo: a hostile/broken client must cost the server one
  // typed error per line, never a wedge. Uses its own connections.
  //===------------------------------------------------------------------===//
  if (Opt.WireFaults) {
    if (Client.connect()) {
      Client.sendLine("{this is not json");
      std::string Reply;
      (void)Client.readLine(Reply, 5.0);
      // 2 MB of 'x' — over the daemon's default 1 MB frame cap.
      std::string Huge(2u << 20, 'x');
      Client.sendLine(Huge);
      (void)Client.readLine(Reply, 10.0);
      // Mid-line disconnect: half a request, then hang up.
      Client.sendRaw("{\"type\":\"veri");
      Client.disconnect();
      std::lock_guard<std::mutex> Lock(T.Mu);
      T.WireFaultsSent += 3;
    }
  }

  if (!Client.connect()) {
    std::lock_guard<std::mutex> Lock(T.Mu);
    T.Unanswered += Opt.Requests;
    return;
  }

  for (int64_t R = 0; R < Opt.Requests; ++R) {
    const int64_t Index = ClientId * Opt.Requests + R;
    const double DeadlineMs = deadlineForIndex(Index, Opt.DeadlineMs);
    std::string Inject;
    // Inject at phase K-1, not phase 0: the deadline mix above has
    // period 5 with the no-deadline band at phase 0, so a phase-0
    // injection with K a multiple of 5 would fault every no-deadline
    // request.
    if (Opt.InjectEvery > 0 &&
        Index % Opt.InjectEvery == Opt.InjectEvery - 1)
      Inject = InjectCycle[(Index / Opt.InjectEvery) % 4];
    const std::string Id =
        "c" + std::to_string(ClientId) + "-" + std::to_string(R);
    const int64_t Variant = pickVariant(Opt.RepeatMix, Rng);
    const std::string Line =
        buildVerifyLine(Opt, Id, DeadlineMs, Inject, Variant);

    const double T0 = nowSeconds();
    bool Answered = false;
    std::string FinalStatus;
    JsonValue Reply;

    for (int64_t Attempt = 0; Attempt <= Opt.MaxRetries && !Answered;
         ++Attempt) {
      if (!Client.connected() && !Client.connect())
        break;
      if (!Client.sendLine(Line)) {
        Client.disconnect();
        continue;
      }
      std::string ReplyLine;
      // Generous read budget: covers queue wait + run + injected hangs
      // (bounded by the server's heartbeat kill + retry ladder).
      if (!Client.readLine(ReplyLine, 60.0)) {
        Client.disconnect();
        continue;
      }
      std::string Err;
      if (!parseJson(ReplyLine, Reply, &Err) ||
          Reply.K != JsonValue::Kind::Object)
        continue;
      const JsonValue *Status = Reply.find("status");
      const JsonValue *Type = Reply.find("type");
      if (Type && Type->stringOr("") == "error") {
        Answered = true;
        FinalStatus = "error";
        break;
      }
      FinalStatus = Status ? Status->stringOr("") : "";
      if (FinalStatus == "overloaded") {
        // Jittered exponential backoff seeded from the server's hint.
        const JsonValue *Hint = Reply.find("retry_after_ms");
        const double Base = Hint ? Hint->numberOr(100.0) : 100.0;
        const double DelayMs = std::min(
            Base * std::pow(2.0, static_cast<double>(Attempt)) * Jitter(Rng),
            3000.0);
        {
          std::lock_guard<std::mutex> Lock(T.Mu);
          ++T.Retries;
        }
        if (Attempt == Opt.MaxRetries) {
          Answered = true; // shed is an answer; record it as the outcome
          break;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(DelayMs));
        continue;
      }
      Answered = !FinalStatus.empty();
    }

    const double LatencyMs = (nowSeconds() - T0) * 1000.0;
    std::lock_guard<std::mutex> Lock(T.Mu);
    ++T.Sent;
    if (!Inject.empty())
      ++T.Injected;
    if (!Answered) {
      ++T.Unanswered;
      continue;
    }
    T.LatenciesMs.push_back(LatencyMs);
    if (FinalStatus == "ok")
      ++T.Ok;
    else if (FinalStatus == "degraded")
      ++T.Degraded;
    else if (FinalStatus == "overloaded")
      ++T.Overloaded;
    else
      ++T.Errors;
    if (FinalStatus == "ok" || FinalStatus == "degraded") {
      if (const JsonValue *Specs = Reply.find("specs")) {
        for (const JsonValue &B : Specs->Items) {
          const JsonValue *Lo = B.find("lower");
          const JsonValue *Hi = B.find("upper");
          const double L = Lo ? Lo->numberOr(0.0) : 0.0;
          const double U = Hi ? Hi->numberOr(1.0) : 1.0;
          const bool InUnit = L >= 0.0 && U <= 1.0 && L <= U;
          const bool Contains =
              !Opt.HaveExpect ||
              (L <= Opt.ExpectContain && Opt.ExpectContain <= U);
          if (!InUnit || !Contains)
            ++T.SoundnessViolations;
        }
      }
    }
  }
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  std::sort(Sorted.begin(), Sorted.end());
  const double Rank = P * static_cast<double>(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(Rank);
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

} // namespace

int main(int Argc, char **Argv) {
  GenOptions Opt;
  auto NextArg = [&](int &I) -> std::string {
    if (I + 1 >= Argc)
      usage("missing value for option");
    return Argv[++I];
  };
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--socket")
      Opt.Socket = NextArg(I);
    else if (Arg == "--net")
      Opt.Net = NextArg(I);
    else if (Arg == "--dims")
      Opt.Dims = numberArg<int64_t>(Arg, NextArg(I));
    else if (Arg == "--spec")
      Opt.Specs.push_back(NextArg(I));
    else if (Arg == "--clients")
      Opt.Clients = numberArg<int64_t>(Arg, NextArg(I));
    else if (Arg == "--requests")
      Opt.Requests = numberArg<int64_t>(Arg, NextArg(I));
    else if (Arg == "--deadline-ms")
      Opt.DeadlineMs = numberArg<double>(Arg, NextArg(I));
    else if (Arg == "--budget-mb")
      Opt.BudgetMb = numberArg<int64_t>(Arg, NextArg(I));
    else if (Arg == "--p")
      Opt.RelaxP = numberArg<double>(Arg, NextArg(I));
    else if (Arg == "--k")
      Opt.ClusterK = numberArg<double>(Arg, NextArg(I));
    else if (Arg == "--inject-every")
      Opt.InjectEvery = numberArg<int64_t>(Arg, NextArg(I));
    else if (Arg == "--wire-faults")
      Opt.WireFaults = true;
    else if (Arg == "--max-retries")
      Opt.MaxRetries = numberArg<int64_t>(Arg, NextArg(I));
    else if (Arg == "--expect-contain") {
      Opt.HaveExpect = true;
      Opt.ExpectContain = numberArg<double>(Arg, NextArg(I));
    } else if (Arg == "--repeat-mix")
      Opt.RepeatMix = numberArg<int64_t>(Arg, NextArg(I));
    else if (Arg == "--seed")
      Opt.Seed = numberArg<uint64_t>(Arg, NextArg(I));
    else if (Arg == "--out")
      Opt.OutPath = NextArg(I);
    else if (Arg == "--help" || Arg == "-h")
      usage();
    else
      usage(("unknown option: " + Arg).c_str());
  }
  if (Opt.Socket.empty() || Opt.Net.empty() || Opt.Dims < 1 ||
      Opt.Specs.empty())
    usage("--socket, --net, --dims and --spec are required");

  Tally T;
  const double Start = nowSeconds();
  std::vector<std::thread> Threads;
  for (int64_t C = 0; C < Opt.Clients; ++C)
    Threads.emplace_back(clientMain, std::cref(Opt), C, std::ref(T));
  for (std::thread &Th : Threads)
    Th.join();
  const double Seconds = nowSeconds() - Start;

  // One stats probe after the fleet finishes: the daemon's cumulative
  // propagation-cache counters land in the results file next to the
  // client-side latencies.
  int64_t CacheHits = 0, CacheMisses = 0;
  {
    LineClient Stats(Opt.Socket);
    std::string Reply;
    if (Stats.connect() && Stats.sendLine("{\"type\":\"stats\"}") &&
        Stats.readLine(Reply, 10.0)) {
      JsonValue V;
      std::string Err;
      if (parseJson(Reply, V, &Err) && V.K == JsonValue::Kind::Object) {
        auto Int = [&](const char *Key) {
          const JsonValue *F = V.find(Key);
          return F ? F->intOr(0) : 0;
        };
        CacheHits = Int("cache_hits");
        CacheMisses = Int("cache_misses");
      }
    }
  }

  const double P50 = percentile(T.LatenciesMs, 0.50);
  const double P90 = percentile(T.LatenciesMs, 0.90);
  const double P99 = percentile(T.LatenciesMs, 0.99);

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("genprove_serve");
  W.key("clients").value(Opt.Clients);
  W.key("requests_per_client").value(Opt.Requests);
  W.key("seconds").value(Seconds);
  W.key("sent").value(T.Sent);
  W.key("ok").value(T.Ok);
  W.key("degraded").value(T.Degraded);
  W.key("overloaded").value(T.Overloaded);
  W.key("errors").value(T.Errors);
  W.key("unanswered").value(T.Unanswered);
  W.key("overload_retries").value(T.Retries);
  W.key("injected_faults").value(T.Injected);
  W.key("wire_faults_sent").value(T.WireFaultsSent);
  W.key("soundness_violations").value(T.SoundnessViolations);
  W.key("repeat_mix").value(Opt.RepeatMix);
  W.key("cache_hits").value(CacheHits);
  W.key("cache_misses").value(CacheMisses);
  W.key("latency_ms").beginObject();
  W.key("p50").value(P50);
  W.key("p90").value(P90);
  W.key("p99").value(P99);
  W.endObject();
  W.endObject();
  const std::string Json = W.str();
  if (FILE *Out = std::fopen(Opt.OutPath.c_str(), "w")) {
    std::fprintf(Out, "%s\n", Json.c_str());
    std::fclose(Out);
  }
  std::printf("%s\n", Json.c_str());

  // The serving contract: every request answered, every bound sound.
  if (T.Unanswered > 0 || T.SoundnessViolations > 0) {
    std::fprintf(stderr,
                 "genprove_loadgen: CONTRACT VIOLATION — %lld unanswered, "
                 "%lld unsound bounds\n",
                 static_cast<long long>(T.Unanswered),
                 static_cast<long long>(T.SoundnessViolations));
    return 1;
  }
  return 0;
}
