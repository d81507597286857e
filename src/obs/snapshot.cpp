//===- obs/snapshot.cpp ---------------------------------------*- C++ -*-===//

#include "src/obs/snapshot.h"

#include "src/obs/json.h"

#include <cstdio>
#include <cstdlib>

namespace genprove {

namespace {

/// Doubles travel as %.17g strings so strtod reproduces them bit-exactly;
/// unlike JsonWriter::value(double), this keeps "inf"/"-inf"/"nan" (as
/// strings) instead of collapsing non-finite values to null — an empty
/// histogram's Min/Max sentinels must survive the round trip.
std::string encodeDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

bool decodeDouble(const JsonValue &V, double &Out) {
  if (V.K != JsonValue::Kind::String)
    return false;
  const char *Text = V.Str.c_str();
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

bool fail(std::string *Error, const char *Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Gauge merge policy and labeling
//===----------------------------------------------------------------------===//

GaugeMerge gaugeMergePolicy(const std::string &Name) {
  const size_t Brace = Name.find('{');
  const std::string Base =
      Brace == std::string::npos ? Name : Name.substr(0, Brace);
  if (Base.find("peak") != std::string::npos)
    return GaugeMerge::Max;
  if (Base.size() >= 8 && Base.compare(Base.size() - 8, 8, "_seconds") == 0)
    return GaugeMerge::Sum;
  return GaugeMerge::Last;
}

std::string labeledMetricName(const std::string &Name, const std::string &Key,
                              const std::string &Value) {
  const std::string Label = Key + "=\"" + Value + "\"";
  if (!Name.empty() && Name.back() == '}') {
    std::string Out = Name;
    Out.insert(Out.size() - 1, "," + Label);
    return Out;
  }
  return Name + "{" + Label + "}";
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

MetricsSnapshot MetricsSnapshot::capture(const MetricsRegistry &Registry) {
  MetricsSnapshot S;
  for (const Counter *C : Registry.counterList())
    S.Counters[C->name()] = C->value();
  for (const Gauge *G : Registry.gaugeList())
    S.Gauges[G->name()] = G->value();
  for (const Histogram *H : Registry.histogramList()) {
    HistogramSnapshot &HS = S.Histograms[H->name()];
    HS.Count = H->count();
    HS.Sum = H->total();
    HS.Min = H->minSample();
    HS.Max = H->maxSample();
    for (int I = 0; I < Histogram::NumBuckets; ++I)
      HS.Buckets[static_cast<size_t>(I)] = H->bucketCount(I);
  }
  return S;
}

MetricsSnapshot MetricsSnapshot::withLabel(const std::string &Key,
                                           const std::string &Value) const {
  MetricsSnapshot Out;
  for (const auto &[Name, V] : Counters)
    Out.Counters[labeledMetricName(Name, Key, Value)] = V;
  for (const auto &[Name, V] : Gauges)
    Out.Gauges[labeledMetricName(Name, Key, Value)] = V;
  for (const auto &[Name, V] : Histograms)
    Out.Histograms[labeledMetricName(Name, Key, Value)] = V;
  return Out;
}

std::string MetricsSnapshot::toJson() const {
  JsonWriter W;
  W.beginObject();

  W.key("counters").beginObject();
  for (const auto &[Name, V] : Counters)
    W.key(Name).value(V);
  W.endObject();

  W.key("gauges").beginObject();
  for (const auto &[Name, V] : Gauges)
    W.key(Name).value(encodeDouble(V));
  W.endObject();

  W.key("histograms").beginObject();
  for (const auto &[Name, H] : Histograms) {
    W.key(Name).beginObject();
    W.key("count").value(H.Count);
    W.key("sum").value(encodeDouble(H.Sum));
    W.key("min").value(encodeDouble(H.Min));
    W.key("max").value(encodeDouble(H.Max));
    W.key("buckets").beginArray();
    for (int I = 0; I < Histogram::NumBuckets; ++I) {
      const int64_t C = H.Buckets[static_cast<size_t>(I)];
      if (C == 0)
        continue;
      W.beginArray().value(int64_t(I)).value(C).endArray();
    }
    W.endArray();
    W.endObject();
  }
  W.endObject();

  W.endObject();
  return W.str();
}

bool MetricsSnapshot::fromJson(const JsonValue &V, MetricsSnapshot &Out,
                               std::string *Error) {
  Out = MetricsSnapshot();
  if (V.K != JsonValue::Kind::Object)
    return fail(Error, "snapshot: not an object");

  if (const JsonValue *C = V.find("counters")) {
    if (C->K != JsonValue::Kind::Object)
      return fail(Error, "snapshot: counters is not an object");
    for (const auto &[Name, Val] : C->Members) {
      if (Val.K != JsonValue::Kind::Number)
        return fail(Error, "snapshot: counter value is not a number");
      Out.Counters[Name] = Val.intOr(0);
    }
  }

  if (const JsonValue *G = V.find("gauges")) {
    if (G->K != JsonValue::Kind::Object)
      return fail(Error, "snapshot: gauges is not an object");
    for (const auto &[Name, Val] : G->Members) {
      double D = 0.0;
      if (!decodeDouble(Val, D))
        return fail(Error, "snapshot: gauge value is not a numeric string");
      Out.Gauges[Name] = D;
    }
  }

  if (const JsonValue *Hs = V.find("histograms")) {
    if (Hs->K != JsonValue::Kind::Object)
      return fail(Error, "snapshot: histograms is not an object");
    for (const auto &[Name, Val] : Hs->Members) {
      if (Val.K != JsonValue::Kind::Object)
        return fail(Error, "snapshot: histogram is not an object");
      HistogramSnapshot H;
      const JsonValue *Count = Val.find("count");
      H.Count = Count ? Count->intOr(0) : 0;
      const JsonValue *Sum = Val.find("sum");
      const JsonValue *Min = Val.find("min");
      const JsonValue *Max = Val.find("max");
      if (!Sum || !decodeDouble(*Sum, H.Sum) || !Min ||
          !decodeDouble(*Min, H.Min) || !Max || !decodeDouble(*Max, H.Max))
        return fail(Error, "snapshot: histogram stats are malformed");
      if (const JsonValue *Buckets = Val.find("buckets")) {
        if (Buckets->K != JsonValue::Kind::Array)
          return fail(Error, "snapshot: histogram buckets is not an array");
        for (const JsonValue &Pair : Buckets->Items) {
          if (Pair.K != JsonValue::Kind::Array || Pair.Items.size() != 2)
            return fail(Error, "snapshot: bucket entry is not [index,count]");
          const int64_t Index = Pair.Items[0].intOr(-1);
          if (Index < 0 || Index >= Histogram::NumBuckets)
            return fail(Error, "snapshot: bucket index out of range");
          H.Buckets[static_cast<size_t>(Index)] = Pair.Items[1].intOr(0);
        }
      }
      Out.Histograms.emplace(Name, H);
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Registry fold
//===----------------------------------------------------------------------===//

void foldIntoRegistry(MetricsRegistry &Registry,
                      const MetricsSnapshot &Snapshot) {
  for (const auto &[Name, V] : Snapshot.Counters)
    Registry.counter(Name).absorb(V);
  for (const auto &[Name, V] : Snapshot.Gauges) {
    Gauge &G = Registry.gauge(Name);
    switch (gaugeMergePolicy(Name)) {
    case GaugeMerge::Last:
      G.absorbSet(V);
      break;
    case GaugeMerge::Max:
      G.absorbMax(V);
      break;
    case GaugeMerge::Sum:
      G.absorbAdd(V);
      break;
    }
  }
  for (const auto &[Name, H] : Snapshot.Histograms) {
    Histogram &Dst = Registry.histogram(Name);
    for (int I = 0; I < Histogram::NumBuckets; ++I)
      if (H.Buckets[static_cast<size_t>(I)] != 0)
        Dst.absorbBucket(I, H.Buckets[static_cast<size_t>(I)]);
    Dst.absorbStats(H.Count, H.Sum, H.Min, H.Max);
  }
}

} // namespace genprove
