//===- shard/protocol.cpp -------------------------------------*- C++ -*-===//

#include "src/shard/protocol.h"

#include "src/obs/json.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace genprove {

//===----------------------------------------------------------------------===//
// LineFramer
//===----------------------------------------------------------------------===//

LineFramer::LineFramer(size_t MaxLineBytes)
    : MaxLine(MaxLineBytes ? MaxLineBytes : 1) {}

void LineFramer::feed(const char *Data, size_t Len) {
  size_t I = 0;
  while (I < Len) {
    if (Dropping) {
      // Discard up to and including the newline that ends the over-cap
      // line; the Oversized marker was queued when the cap was crossed.
      const void *Nl = memchr(Data + I, '\n', Len - I);
      if (!Nl)
        return; // still inside the discarded line
      I = static_cast<size_t>(static_cast<const char *>(Nl) - Data) + 1;
      Dropping = false;
      continue;
    }
    const void *Nl = memchr(Data + I, '\n', Len - I);
    const size_t Stop =
        Nl ? static_cast<size_t>(static_cast<const char *>(Nl) - Data) : Len;
    const size_t Take = Stop - I;
    if (Partial.size() + Take > MaxLine) {
      // Cap crossed: forget what we buffered, queue one typed marker in
      // order, and discard the rest of this line as it streams in.
      Partial.clear();
      Dropping = true;
      ++OversizedCount;
      Ready.push_back(Pending{true, std::string()});
      if (Nl) {
        I = Stop + 1;
        Dropping = false;
      } else {
        return;
      }
      continue;
    }
    Partial.append(Data + I, Take);
    if (!Nl)
      return;
    Ready.push_back(Pending{false, std::move(Partial)});
    Partial.clear();
    I = Stop + 1;
  }
}

LineFramer::Frame LineFramer::next(std::string &Line) {
  if (Ready.empty()) {
    Line.clear();
    return Frame::None;
  }
  Pending P = std::move(Ready.front());
  Ready.pop_front();
  if (P.Oversized) {
    Line.clear();
    return Frame::Oversized;
  }
  Line = std::move(P.Text);
  return Frame::Line;
}

WireError LineFramer::finish() const {
  if (Dropping)
    return WireError::Oversized;
  if (!Partial.empty())
    return WireError::Truncated;
  return WireError::None;
}

std::string encodeShardHeartbeat(int64_t Shard, int64_t Seq,
                                 int64_t StateBytes, int64_t Layer) {
  JsonWriter W;
  W.beginObject()
      .key("type")
      .value("heartbeat")
      .key("shard")
      .value(Shard)
      .key("seq")
      .value(Seq)
      .key("state_bytes")
      .value(StateBytes)
      .key("layer")
      .value(Layer)
      .endObject();
  return W.str();
}

bool decodeShardHeartbeat(const std::string &Line, ShardHeartbeat &Out) {
  JsonValue V;
  if (!parseJson(Line, V))
    return false;
  const JsonValue *Type = V.find("type");
  if (!Type || Type->stringOr("") != "heartbeat")
    return false;
  Out = ShardHeartbeat{};
  auto Int = [&](const char *Key, int64_t Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->intOr(Fallback) : Fallback;
  };
  Out.Shard = Int("shard", -1);
  Out.Seq = Int("seq", 0);
  Out.StateBytes = Int("state_bytes", -1);
  Out.Layer = Int("layer", -1);
  return true;
}

namespace {

void encodeTraceEvent(JsonWriter &W, const TraceEvent &E) {
  W.beginObject();
  W.key("n").value(E.Name);
  W.key("ts").value(int64_t(E.StartUs));
  W.key("dur").value(int64_t(E.DurUs));
  W.key("self").value(int64_t(E.SelfUs));
  W.key("tid").value(int64_t(E.Tid));
  W.key("depth").value(int64_t(E.Depth));
  W.endObject();
}

void encodeLogRecord(JsonWriter &W, const LogRecord &R) {
  W.beginObject();
  W.key("ts").value(int64_t(R.TsUs));
  W.key("level").value(int64_t(R.Level));
  W.key("shard").value(R.Shard);
  W.key("event").value(R.Event);
  W.key("fields").beginObject();
  for (const LogField &F : R.Fields) {
    W.key(F.first);
    switch (F.second.K) {
    case LogValue::Kind::Int:
      W.value(F.second.I);
      break;
    case LogValue::Kind::Real:
      W.value(F.second.D);
      break;
    case LogValue::Kind::Text:
      W.value(F.second.S);
      break;
    case LogValue::Kind::Flag:
      W.value(F.second.B);
      break;
    }
  }
  W.endObject();
  W.endObject();
}

bool decodeTraceEvent(const JsonValue &V, TraceEvent &Out) {
  if (V.K != JsonValue::Kind::Object)
    return false;
  const JsonValue *Name = V.find("n");
  if (!Name || Name->K != JsonValue::Kind::String)
    return false;
  Out = TraceEvent{};
  Out.Name = Name->Str;
  auto Int = [&](const char *Key, int64_t Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->intOr(Fallback) : Fallback;
  };
  Out.StartUs = uint64_t(Int("ts", 0));
  Out.DurUs = uint64_t(Int("dur", 0));
  Out.SelfUs = uint64_t(Int("self", 0));
  Out.Tid = uint32_t(Int("tid", 0));
  Out.Depth = uint32_t(Int("depth", 0));
  return true;
}

bool decodeLogRecord(const JsonValue &V, LogRecord &Out) {
  if (V.K != JsonValue::Kind::Object)
    return false;
  const JsonValue *Event = V.find("event");
  if (!Event || Event->K != JsonValue::Kind::String)
    return false;
  Out = LogRecord{};
  Out.Event = Event->Str;
  auto Int = [&](const char *Key, int64_t Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->intOr(Fallback) : Fallback;
  };
  Out.TsUs = uint64_t(Int("ts", 0));
  const int64_t Level = Int("level", int64_t(LogLevel::Info));
  Out.Level = Level >= 0 && Level <= int64_t(LogLevel::Error)
                  ? LogLevel(Level)
                  : LogLevel::Info;
  Out.Shard = Int("shard", -1);
  if (const JsonValue *Fields = V.find("fields");
      Fields && Fields->K == JsonValue::Kind::Object) {
    for (const auto &[Key, Val] : Fields->Members) {
      switch (Val.K) {
      case JsonValue::Kind::Number: {
        // Integral numbers in the exactly-representable range come back
        // as ints; everything else stays a double.
        const double D = Val.Num;
        if (D == std::floor(D) && std::abs(D) < 9.007199254740992e15)
          Out.Fields.emplace_back(Key, LogValue(int64_t(D)));
        else
          Out.Fields.emplace_back(Key, LogValue(D));
        break;
      }
      case JsonValue::Kind::String:
        Out.Fields.emplace_back(Key, LogValue(Val.Str));
        break;
      case JsonValue::Kind::Bool:
        Out.Fields.emplace_back(Key, LogValue(Val.B));
        break;
      default:
        break; // null/array/object fields are dropped
      }
    }
  }
  return true;
}

} // namespace

std::string encodeShardResult(const ShardResult &R,
                              const ShardTelemetry *Telemetry) {
  JsonWriter W;
  W.beginObject();
  W.key("type").value("result");
  W.key("shard").value(R.Shard);
  W.key("attempt").value(R.Attempt);
  W.key("rung").value(R.Rung);
  W.key("seconds").value(R.Seconds);
  W.key("peak_bytes").value(R.PeakBytes);
  W.key("max_regions").value(R.MaxRegions);
  W.key("max_nodes").value(R.MaxNodes);
  W.key("retries").value(R.Retries);
  W.key("rollbacks").value(R.Rollbacks);
  W.key("fallback_box_layers").value(R.FallbackBoxLayers);
  W.key("quarantined_mass").value(R.QuarantinedMass);
  W.key("degraded").value(R.Degraded);
  W.key("deadline_hit").value(R.DeadlineHit);
  W.key("oom").value(R.OutOfMemory);
  W.key("specs").beginArray();
  for (const ShardSpecBounds &B : R.Specs) {
    W.beginObject()
        .key("lower")
        .value(B.Lower)
        .key("upper")
        .value(B.Upper)
        .key("degraded")
        .value(B.Degraded)
        .endObject();
  }
  W.endArray();
  if (Telemetry && !Telemetry->empty()) {
    W.key("telemetry").beginObject();
    if (Telemetry->HasMetrics)
      W.key("metrics").raw(Telemetry->Metrics.toJson());
    if (!Telemetry->Trace.empty()) {
      W.key("trace").beginArray();
      for (const TraceEvent &E : Telemetry->Trace)
        encodeTraceEvent(W, E);
      W.endArray();
    }
    if (!Telemetry->Log.empty()) {
      W.key("log").beginArray();
      for (const LogRecord &L : Telemetry->Log)
        encodeLogRecord(W, L);
      W.endArray();
    }
    W.endObject();
  }
  W.endObject();
  return W.str();
}

ShardMessageKind classifyShardMessage(const std::string &Line) {
  JsonValue V;
  if (!parseJson(Line, V))
    return ShardMessageKind::Invalid;
  const JsonValue *Type = V.find("type");
  if (!Type)
    return ShardMessageKind::Invalid;
  const std::string &Kind = Type->stringOr("");
  if (Kind == "heartbeat")
    return ShardMessageKind::Heartbeat;
  if (Kind == "result")
    return ShardMessageKind::Result;
  return ShardMessageKind::Invalid;
}

bool decodeShardResult(const std::string &Line, ShardResult &Out,
                       std::string *Error, ShardTelemetry *Telemetry) {
  if (Telemetry)
    *Telemetry = ShardTelemetry{};
  JsonValue V;
  if (!parseJson(Line, V, Error))
    return false;
  const JsonValue *Type = V.find("type");
  if (!Type || Type->stringOr("") != "result") {
    if (Error)
      *Error = "not a result message";
    return false;
  }
  Out = ShardResult{};
  auto Int = [&](const char *Key, int64_t Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->intOr(Fallback) : Fallback;
  };
  auto Num = [&](const char *Key, double Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->numberOr(Fallback) : Fallback;
  };
  auto Flag = [&](const char *Key, bool Fallback) {
    const JsonValue *F = V.find(Key);
    return F ? F->boolOr(Fallback) : Fallback;
  };
  Out.Shard = Int("shard", -1);
  Out.Attempt = Int("attempt", 0);
  Out.Rung = Int("rung", 0);
  Out.Seconds = Num("seconds", 0.0);
  Out.PeakBytes = Int("peak_bytes", 0);
  Out.MaxRegions = Int("max_regions", 0);
  Out.MaxNodes = Int("max_nodes", 0);
  Out.Retries = Int("retries", 0);
  Out.Rollbacks = Int("rollbacks", 0);
  Out.FallbackBoxLayers = Int("fallback_box_layers", 0);
  Out.QuarantinedMass = Num("quarantined_mass", 0.0);
  Out.Degraded = Flag("degraded", false);
  Out.DeadlineHit = Flag("deadline_hit", false);
  Out.OutOfMemory = Flag("oom", false);
  if (const JsonValue *Specs = V.find("specs");
      Specs && Specs->K == JsonValue::Kind::Array) {
    Out.Specs.reserve(Specs->Items.size());
    for (const JsonValue &S : Specs->Items) {
      ShardSpecBounds B;
      // A missing bound decodes to the conservative extreme, never to a
      // tighter-than-reported interval.
      const JsonValue *Lo = S.find("lower");
      const JsonValue *Hi = S.find("upper");
      B.Lower = Lo ? Lo->numberOr(0.0) : 0.0;
      B.Upper = Hi ? Hi->numberOr(1.0) : 1.0;
      const JsonValue *Deg = S.find("degraded");
      B.Degraded = Deg ? Deg->boolOr(false) : false;
      Out.Specs.push_back(B);
    }
  }
  if (Out.Shard < 0) {
    if (Error)
      *Error = "result message missing shard index";
    return false;
  }
  if (Telemetry) {
    if (const JsonValue *Tel = V.find("telemetry");
        Tel && Tel->K == JsonValue::Kind::Object) {
      if (const JsonValue *Metrics = Tel->find("metrics"))
        Telemetry->HasMetrics =
            MetricsSnapshot::fromJson(*Metrics, Telemetry->Metrics);
      if (const JsonValue *Trace = Tel->find("trace");
          Trace && Trace->K == JsonValue::Kind::Array)
        for (const JsonValue &E : Trace->Items) {
          TraceEvent Event;
          if (decodeTraceEvent(E, Event))
            Telemetry->Trace.push_back(std::move(Event));
        }
      if (const JsonValue *Log = Tel->find("log");
          Log && Log->K == JsonValue::Kind::Array)
        for (const JsonValue &R : Log->Items) {
          LogRecord Record;
          if (decodeLogRecord(R, Record))
            Telemetry->Log.push_back(std::move(Record));
        }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// ShardJob
//===----------------------------------------------------------------------===//

std::string encodeShardJob(const ShardJob &Job) {
  const GenProveConfig &C = Job.Config;
  JsonWriter W;
  const auto Array = [&](const char *Key, const auto &Items) {
    W.key(Key).beginArray();
    for (const auto &Item : Items)
      W.value(Item);
    W.endArray();
  };
  W.beginObject();
  Array("nets", Job.NetPaths);
  W.key("input_shape").value(Job.InputShape);
  Array("start", Job.Start);
  Array("end", Job.End);
  Array("specs", Job.Specs);
  W.key("shards").value(Job.Shards);
  W.key("budget_bytes").value(static_cast<int64_t>(C.MemoryBudgetBytes));
  W.key("deadline_s").value(C.Resilience.DeadlineSeconds);
  W.key("p").value(C.RelaxPercent);
  W.key("k").value(C.ClusterK);
  W.key("threshold").value(C.NodeThreshold);
  W.key("arcsine").value(C.Distribution == ParamDistribution::Arcsine);
  W.key("schedule").value(static_cast<int64_t>(C.Schedule));
  W.key("resilient").value(C.Resilience.Enabled);
  if (Job.Faults) {
    W.key("faults").beginObject();
    W.key("oom_layer").value(Job.Faults->OomAtLayer);
    W.key("oom_count").value(Job.Faults->OomFireCount);
    W.key("nan_layer").value(Job.Faults->NanAtLayer);
    W.key("clock_skew_s").value(Job.Faults->ClockSkewSecondsPerLayer);
    W.key("clock_start_s").value(Job.Faults->ClockStartSeconds);
    W.endObject();
  }
  W.key("sound").value(Job.Sound);
  W.key("heartbeat_ms").value(Job.HeartbeatMs);
  W.key("inject").value(Job.Fault.Mode);
  W.key("inject_shard").value(Job.Fault.Shard);
  W.key("inject_attempts").value(Job.Fault.Attempts);
  W.key("inject_ms").value(Job.Fault.Millis);
  W.key("threads").value(Job.Threads);
  W.key("ship_metrics").value(Job.ShipMetrics);
  W.key("ship_trace").value(Job.ShipTrace);
  W.key("ship_log").value(Job.ShipLog);
  W.key("run_id").value(Job.RunId);
  W.endObject();
  return W.str();
}

bool decodeShardJob(const std::string &Text, ShardJob &Out, std::string *Err) {
  Out = ShardJob{};
  const auto Fail = [&](std::string What) {
    if (Err)
      *Err = std::move(What);
    return false;
  };
  JsonValue V;
  std::string ParseErr;
  if (!parseJson(Text, V, &ParseErr))
    return Fail(ParseErr);
  if (V.K != JsonValue::Kind::Object)
    return Fail("job is not an object");

  // Absent optional keys keep the default-constructed job's values.
  const auto Num = [](const JsonValue &O, const char *Key, double &Into) {
    if (const JsonValue *F = O.find(Key))
      Into = F->numberOr(Into);
  };
  const auto Int = [](const JsonValue &O, const char *Key, int64_t &Into) {
    if (const JsonValue *F = O.find(Key))
      Into = F->intOr(Into);
  };
  const auto Flag = [&](const char *Key, bool &Into) {
    if (const JsonValue *F = V.find(Key))
      Into = F->boolOr(Into);
  };
  const auto Str = [&](const char *Key, std::string &Into) {
    if (const JsonValue *F = V.find(Key))
      Into = F->stringOr("");
  };
  const auto Texts = [&](const char *Key, std::vector<std::string> &Into) {
    const JsonValue *A = V.find(Key);
    if (!A || A->K != JsonValue::Kind::Array || A->Items.empty())
      return false;
    for (const JsonValue &E : A->Items) {
      if (E.K != JsonValue::Kind::String || E.Str.empty())
        return false;
      Into.push_back(E.Str);
    }
    return true;
  };
  const auto Finite = [&](const char *Key, std::vector<double> &Into) {
    const JsonValue *A = V.find(Key);
    if (!A || A->K != JsonValue::Kind::Array || A->Items.empty())
      return false;
    for (const JsonValue &E : A->Items) {
      if (E.K != JsonValue::Kind::Number || !std::isfinite(E.Num))
        return false;
      Into.push_back(E.Num);
    }
    return true;
  };
  if (!Texts("nets", Out.NetPaths))
    return Fail("job needs a non-empty array of network paths");
  Str("input_shape", Out.InputShape);
  if (!Finite("start", Out.Start) || !Finite("end", Out.End))
    return Fail("job start and end must be non-empty arrays of finite "
                "numbers");
  if (Out.Start.size() != Out.End.size())
    return Fail("job start and end have different lengths");
  if (!Texts("specs", Out.Specs))
    return Fail("job needs a non-empty array of specs");
  for (const std::string &Spec : Out.Specs) {
    OutputSpec Parsed;
    std::string Why;
    if (!parseOutputSpecText(Spec, Parsed, &Why))
      return Fail("job spec '" + Spec + "': " + Why);
  }
  Int(V, "shards", Out.Shards);
  if (Out.Shards < 1)
    return Fail("job needs shards >= 1");

  GenProveConfig &C = Out.Config;
  int64_t Budget = 0, Schedule = 0;
  Int(V, "budget_bytes", Budget);
  C.MemoryBudgetBytes = static_cast<size_t>(std::max<int64_t>(Budget, 0));
  Num(V, "deadline_s", C.Resilience.DeadlineSeconds);
  Num(V, "p", C.RelaxPercent);
  Num(V, "k", C.ClusterK);
  Int(V, "threshold", C.NodeThreshold);
  bool Arcsine = false;
  Flag("arcsine", Arcsine);
  if (Arcsine)
    C.Distribution = ParamDistribution::Arcsine;
  Int(V, "schedule", Schedule);
  C.Schedule = static_cast<RefinementSchedule>(std::clamp<int64_t>(
      Schedule, 0, static_cast<int64_t>(RefinementSchedule::B)));
  Flag("resilient", C.Resilience.Enabled);
  if (const JsonValue *F = V.find("faults");
      F && F->K == JsonValue::Kind::Object) {
    FaultPlan &Plan = Out.Faults.emplace();
    Int(*F, "oom_layer", Plan.OomAtLayer);
    Int(*F, "oom_count", Plan.OomFireCount);
    Int(*F, "nan_layer", Plan.NanAtLayer);
    Num(*F, "clock_skew_s", Plan.ClockSkewSecondsPerLayer);
    Num(*F, "clock_start_s", Plan.ClockStartSeconds);
  }
  Flag("sound", Out.Sound);
  Num(V, "heartbeat_ms", Out.HeartbeatMs);
  WorkerFault &Fault = Out.Fault;
  Str("inject", Fault.Mode);
  if (!Fault.Mode.empty() && Fault.Mode != "crash" && Fault.Mode != "hang" &&
      Fault.Mode != "oomkill" && Fault.Mode != "slow")
    return Fail("job has an unknown fault mode '" + Fault.Mode +
                "' (crash|hang|oomkill|slow)");
  Int(V, "inject_shard", Fault.Shard);
  if (!Fault.Mode.empty() && (Fault.Shard < 0 || Fault.Shard >= Out.Shards))
    return Fail("job fault shard " + std::to_string(Fault.Shard) +
                " is outside [0, " + std::to_string(Out.Shards) + ")");
  Int(V, "inject_attempts", Fault.Attempts);
  Num(V, "inject_ms", Fault.Millis);
  Int(V, "threads", Out.Threads);
  Flag("ship_metrics", Out.ShipMetrics);
  Flag("ship_trace", Out.ShipTrace);
  Flag("ship_log", Out.ShipLog);
  Str("run_id", Out.RunId);
  return true;
}

} // namespace genprove
