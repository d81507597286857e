//===- serve/request.cpp --------------------------------------*- C++ -*-===//

#include "src/serve/request.h"

#include "src/obs/json.h"

#include <cmath>

namespace genprove {

namespace {

bool requestError(std::string *Code, std::string *Detail, const char *C,
                  std::string D) {
  if (Code)
    *Code = C;
  if (Detail)
    *Detail = std::move(D);
  return false;
}

bool readVector(const JsonValue &V, const char *Key,
                std::vector<double> &Out, std::string *Code,
                std::string *Detail) {
  const JsonValue *Arr = V.find(Key);
  if (!Arr || Arr->K != JsonValue::Kind::Array)
    return requestError(Code, Detail, "bad_request",
                        std::string(Key) + " must be an array of numbers");
  Out.clear();
  Out.reserve(Arr->Items.size());
  for (const JsonValue &E : Arr->Items) {
    if (E.K != JsonValue::Kind::Number || !std::isfinite(E.Num))
      return requestError(Code, Detail, "bad_request",
                          std::string(Key) +
                              " has a non-finite or non-numeric entry");
    Out.push_back(E.Num);
  }
  if (Out.empty())
    return requestError(Code, Detail, "bad_request",
                        std::string(Key) + " is empty");
  return true;
}

} // namespace

bool decodeServeRequest(const std::string &Line, ServeRequest &Out,
                        std::string *Code, std::string *Detail) {
  Out = ServeRequest{};
  JsonValue V;
  std::string ParseErr;
  if (!parseJson(Line, V, &ParseErr))
    return requestError(Code, Detail, "malformed", ParseErr);
  if (V.K != JsonValue::Kind::Object)
    return requestError(Code, Detail, "malformed", "request is not an object");

  const JsonValue *Type = V.find("type");
  const std::string &Kind = Type ? Type->stringOr("") : "";
  if (Kind == "stats") {
    Out.Type = ServeRequest::Kind::Stats;
    return true;
  }
  if (Kind == "ping") {
    Out.Type = ServeRequest::Kind::Ping;
    return true;
  }
  if (Kind != "verify")
    return requestError(Code, Detail, "bad_request",
                        "unknown request type (verify | stats | ping)");

  Out.Type = ServeRequest::Kind::Verify;
  if (const JsonValue *Id = V.find("id"))
    Out.Id = Id->stringOr("");
  const JsonValue *Net = V.find("net");
  if (!Net || Net->K != JsonValue::Kind::String || Net->Str.empty())
    return requestError(Code, Detail, "bad_request",
                        "verify request needs a net name");
  Out.Net = Net->Str;
  const JsonValue *Shape = V.find("input_shape");
  if (!Shape || Shape->K != JsonValue::Kind::String || Shape->Str.empty())
    return requestError(Code, Detail, "bad_request",
                        "verify request needs input_shape (e.g. \"1x4\")");
  Out.InputShape = Shape->Str;

  if (!readVector(V, "start", Out.Start, Code, Detail) ||
      !readVector(V, "end", Out.End, Code, Detail))
    return false;
  if (Out.Start.size() != Out.End.size())
    return requestError(Code, Detail, "bad_request",
                        "start and end have different lengths");

  const JsonValue *Specs = V.find("specs");
  if (!Specs || Specs->K != JsonValue::Kind::Array || Specs->Items.empty())
    return requestError(Code, Detail, "bad_request",
                        "verify request needs a non-empty specs array");
  for (const JsonValue &S : Specs->Items) {
    if (S.K != JsonValue::Kind::String)
      return requestError(Code, Detail, "bad_request",
                          "specs entries must be strings");
    // The spec grammar itself is validated here, up front, so a bad spec
    // is a typed refusal instead of a failed propagation later.
    OutputSpec Parsed;
    std::string SpecErr;
    if (!parseOutputSpecText(S.Str, Parsed, &SpecErr))
      return requestError(Code, Detail, "bad_request",
                          "spec '" + S.Str + "': " + SpecErr);
    Out.Specs.push_back(S.Str);
  }

  auto Num = [&](const char *Key, double Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->numberOr(Fallback) : Fallback;
  };
  auto Int = [&](const char *Key, int64_t Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->intOr(Fallback) : Fallback;
  };
  auto Flag = [&](const char *Key, bool Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->boolOr(Fallback) : Fallback;
  };
  Out.DeadlineMs = Num("deadline_ms", 0.0);
  if (!std::isfinite(Out.DeadlineMs))
    Out.DeadlineMs = 0.0;
  Out.BudgetMb = Int("budget_mb", 0);
  if (Out.BudgetMb < 0)
    Out.BudgetMb = 0;
  Out.RelaxPercent = Num("p", 0.0);
  Out.ClusterK = Num("k", 100.0);
  Out.NodeThreshold = Int("threshold", 250);
  Out.Deterministic = Flag("deterministic", false);
  Out.Sound = Flag("sound", false);
  Out.Arcsine = Flag("arcsine", false);
  if (const JsonValue *Inject = V.find("inject"))
    Out.Inject = Inject->stringOr("");
  if (!Out.Inject.empty() && Out.Inject != "crash" && Out.Inject != "hang" &&
      Out.Inject != "oomkill" && Out.Inject != "slow")
    return requestError(Code, Detail, "bad_request",
                        "inject must be crash|hang|oomkill|slow");
  Out.InjectMs = Num("inject_ms", 200.0);
  return true;
}

std::string encodeServeResponse(const ServeResponse &R) {
  JsonWriter W;
  W.beginObject();
  W.key("type").value("result");
  W.key("id").value(R.Id);
  W.key("status").value(R.Status);
  W.key("rung").value(shardRungName(R.Rung));
  W.key("specs").beginArray();
  for (const ServeSpecBounds &B : R.Specs) {
    W.beginObject()
        .key("lower")
        .value(B.Lower)
        .key("upper")
        .value(B.Upper)
        .key("degraded")
        .value(B.Degraded)
        .key("verdict")
        .value(B.Verdict)
        .endObject();
  }
  W.endArray();
  W.key("queue_ms").value(R.QueueMs);
  W.key("run_ms").value(R.RunMs);
  if (R.Status == "overloaded") {
    W.key("retry_after_ms").value(R.RetryAfterMs);
    W.key("shed_reason").value(shedReasonName(R.Shed));
  }
  if (!R.Error.empty())
    W.key("error").value(R.Error);
  W.endObject();
  return W.str();
}

std::string encodeServeError(const std::string &Code,
                             const std::string &Detail) {
  JsonWriter W;
  W.beginObject();
  W.key("type").value("error");
  W.key("code").value(Code);
  W.key("detail").value(Detail);
  W.endObject();
  return W.str();
}

std::string encodeServePong() {
  JsonWriter W;
  W.beginObject().key("type").value("pong").endObject();
  return W.str();
}

std::string encodeServeStats(const ServeStatsInfo &S) {
  JsonWriter W;
  W.beginObject();
  W.key("type").value("stats");
  W.key("inflight").value(S.InFlight);
  W.key("queued").value(S.Queued);
  W.key("draining").value(S.Draining);
  W.key("requests").value(S.Requests);
  W.key("shed").value(S.Shed);
  W.key("cache_hits").value(S.CacheHits);
  W.key("cache_misses").value(S.CacheMisses);
  W.key("cache_evictions").value(S.CacheEvictions);
  W.key("cache_bytes").value(S.CacheBytes);
  W.key("prometheus").value(S.Prometheus);
  W.endObject();
  return W.str();
}

std::string encodeServeWorkerSpec(const ServeWorkerSpec &S) {
  JsonWriter W;
  W.beginObject();
  W.key("nets").beginArray();
  for (const std::string &P : S.NetPaths)
    W.value(P);
  W.endArray();
  W.key("input_shape").value(S.InputShape);
  W.key("start").beginArray();
  for (double V : S.Start)
    W.value(V);
  W.endArray();
  W.key("end").beginArray();
  for (double V : S.End)
    W.value(V);
  W.endArray();
  W.key("specs").beginArray();
  for (const std::string &T : S.Specs)
    W.value(T);
  W.endArray();
  W.key("budget_bytes").value(static_cast<int64_t>(S.BudgetBytes));
  W.key("deadline_s").value(S.DeadlineSeconds);
  W.key("p").value(S.RelaxPercent);
  W.key("k").value(S.ClusterK);
  W.key("threshold").value(S.NodeThreshold);
  W.key("arcsine").value(S.Arcsine);
  W.key("sound").value(S.Sound);
  W.key("heartbeat_ms").value(S.HeartbeatMs);
  W.key("inject").value(S.Inject);
  W.endObject();
  return W.str();
}

bool decodeServeWorkerSpec(const std::string &Text, ServeWorkerSpec &Out,
                           std::string *Err) {
  Out = ServeWorkerSpec{};
  JsonValue V;
  std::string ParseErr;
  if (!parseJson(Text, V, &ParseErr)) {
    if (Err)
      *Err = ParseErr;
    return false;
  }
  auto Fail = [&](const char *What) {
    if (Err)
      *Err = What;
    return false;
  };
  if (V.K != JsonValue::Kind::Object)
    return Fail("worker spec is not an object");

  const JsonValue *Nets = V.find("nets");
  if (!Nets || Nets->K != JsonValue::Kind::Array || Nets->Items.empty())
    return Fail("worker spec needs a non-empty nets array");
  for (const JsonValue &N : Nets->Items) {
    if (N.K != JsonValue::Kind::String || N.Str.empty())
      return Fail("worker spec net paths must be strings");
    Out.NetPaths.push_back(N.Str);
  }
  const JsonValue *Shape = V.find("input_shape");
  if (!Shape || Shape->K != JsonValue::Kind::String)
    return Fail("worker spec needs input_shape");
  Out.InputShape = Shape->Str;

  auto ReadNums = [&](const char *Key, std::vector<double> &Dst) {
    const JsonValue *Arr = V.find(Key);
    if (!Arr || Arr->K != JsonValue::Kind::Array || Arr->Items.empty())
      return false;
    for (const JsonValue &E : Arr->Items) {
      if (E.K != JsonValue::Kind::Number || !std::isfinite(E.Num))
        return false;
      Dst.push_back(E.Num);
    }
    return true;
  };
  if (!ReadNums("start", Out.Start) || !ReadNums("end", Out.End) ||
      Out.Start.size() != Out.End.size())
    return Fail("worker spec needs matching start/end arrays");

  const JsonValue *Specs = V.find("specs");
  if (!Specs || Specs->K != JsonValue::Kind::Array || Specs->Items.empty())
    return Fail("worker spec needs a specs array");
  for (const JsonValue &S : Specs->Items) {
    OutputSpec Parsed;
    if (S.K != JsonValue::Kind::String ||
        !parseOutputSpecText(S.Str, Parsed, nullptr))
      return Fail("worker spec has an invalid spec entry");
    Out.Specs.push_back(S.Str);
  }

  const int64_t Budget = V.find("budget_bytes")
                             ? V.find("budget_bytes")->intOr(0)
                             : 0;
  Out.BudgetBytes = Budget > 0 ? static_cast<size_t>(Budget) : 0;
  auto Num = [&](const char *Key, double Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->numberOr(Fallback) : Fallback;
  };
  Out.DeadlineSeconds = Num("deadline_s", 0.0);
  Out.RelaxPercent = Num("p", 0.0);
  Out.ClusterK = Num("k", 100.0);
  Out.NodeThreshold =
      V.find("threshold") ? V.find("threshold")->intOr(250) : 250;
  Out.Arcsine = V.find("arcsine") ? V.find("arcsine")->boolOr(false) : false;
  Out.Sound = V.find("sound") ? V.find("sound")->boolOr(false) : false;
  Out.HeartbeatMs = Num("heartbeat_ms", 100.0);
  if (const JsonValue *Inject = V.find("inject"))
    Out.Inject = Inject->stringOr("");
  return true;
}

} // namespace genprove
