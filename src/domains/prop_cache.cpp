//===- domains/prop_cache.cpp ---------------------------------*- C++ -*-===//

#include "src/domains/prop_cache.h"

#include "src/domains/relaxation.h"
#include "src/obs/metrics.h"
#include "src/util/hash.h"

namespace genprove {

namespace {

uint64_t hashRegion(uint64_t H, const Region &R) {
  H = hashing::hashU64(H, static_cast<uint64_t>(R.Kind));
  H = hashing::hashDouble(H, R.Weight);
  if (R.Kind == RegionKind::Curve) {
    H = hashing::hashDouble(H, R.T0);
    H = hashing::hashDouble(H, R.T1);
    H = hashing::hashU64(H, static_cast<uint64_t>(R.Coeffs.dim(0)));
    H = hashing::hashU64(H, static_cast<uint64_t>(R.Coeffs.dim(1)));
    H = hashing::hashBytes(H, R.Coeffs.data(),
                           static_cast<size_t>(R.Coeffs.numel()) *
                               sizeof(double));
  } else {
    H = hashing::hashU64(H, static_cast<uint64_t>(R.Center.dim(1)));
    H = hashing::hashBytes(H, R.Center.data(),
                           static_cast<size_t>(R.Center.numel()) *
                               sizeof(double));
    H = hashing::hashBytes(H, R.Radius.data(),
                           static_cast<size_t>(R.Radius.numel()) *
                               sizeof(double));
  }
  return H;
}

size_t entryBytes(const std::vector<Region> &State) {
  const int64_t Dim = State.empty() ? 0 : State.front().dim();
  return stateBytes(totalNodes(State), Dim);
}

Counter &hitsCtr() {
  static Counter &C = MetricsRegistry::global().counter("cache.hits");
  return C;
}
Counter &missesCtr() {
  static Counter &C = MetricsRegistry::global().counter("cache.misses");
  return C;
}
Counter &evictionsCtr() {
  static Counter &C = MetricsRegistry::global().counter("cache.evictions");
  return C;
}
Counter &insertionsCtr() {
  static Counter &C = MetricsRegistry::global().counter("cache.insertions");
  return C;
}

} // namespace

PropagationCache &PropagationCache::global() {
  static PropagationCache Cache;
  return Cache;
}

void PropagationCache::configure(size_t BudgetBytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  Budget = BudgetBytes;
  Map.clear();
  Lru.clear();
  CurBytes = 0;
  Device = BudgetBytes
               ? std::make_unique<DeviceMemoryModel>(BudgetBytes)
               : nullptr;
  publishGaugesLocked();
}

bool PropagationCache::enabled() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Budget != 0;
}

size_t PropagationCache::budgetBytes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Budget;
}

size_t PropagationCache::bytes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return CurBytes;
}

void PropagationCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  Lru.clear();
  CurBytes = 0;
  if (Device)
    Device->reset();
  publishGaugesLocked();
}

PropagationCache::Snapshot PropagationCache::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Snapshot S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Insertions = Insertions;
  S.Bytes = CurBytes;
  S.BudgetBytes = Budget;
  return S;
}

std::vector<uint64_t>
PropagationCache::chainKeys(uint64_t Salt, const Shape &InputShape,
                            const std::vector<Region> &Input,
                            const std::vector<const Layer *> &Layers) {
  uint64_t H = hashing::hashU64(hashing::FnvOffset, Salt);
  for (int64_t D : InputShape.dims())
    H = hashing::hashU64(H, static_cast<uint64_t>(D));
  H = hashing::hashU64(H, Input.size());
  for (const Region &R : Input)
    H = hashRegion(H, R);

  std::vector<uint64_t> Chain;
  Chain.reserve(Layers.size() + 1);
  Chain.push_back(H);
  for (const Layer *L : Layers) {
    H = hashing::hashU64(H, L->fingerprint());
    Chain.push_back(H);
  }
  return Chain;
}

void PropagationCache::touchLocked(Entry &E, uint64_t Key) {
  Lru.erase(E.LruIt);
  Lru.push_front(Key);
  E.LruIt = Lru.begin();
}

void PropagationCache::publishGaugesLocked() {
  if (!metricsEnabled())
    return;
  static Gauge &BytesGauge = MetricsRegistry::global().gauge("cache.bytes");
  static Gauge &HitRateGauge =
      MetricsRegistry::global().gauge("cache.hit_rate");
  BytesGauge.set(static_cast<double>(CurBytes));
  const int64_t Lookups = Hits + Misses;
  if (Lookups > 0)
    HitRateGauge.set(static_cast<double>(Hits) /
                     static_cast<double>(Lookups));
}

size_t PropagationCache::lookupDeepest(const std::vector<uint64_t> &Chain,
                                       std::vector<Region> &State,
                                       Shape &StateShape,
                                       size_t &PrefixPeakBytes,
                                       const AdmitFn &Admit) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Budget == 0 || Chain.size() < 2)
    return 0;
  for (size_t I = Chain.size(); I-- > 1;) {
    auto It = Map.find(Chain[I]);
    if (It == Map.end())
      continue;
    if (Admit && !Admit(It->second.PrefixPeakBytes))
      break;
    touchLocked(It->second, Chain[I]);
    State = It->second.State;
    StateShape = It->second.StateShape;
    PrefixPeakBytes = It->second.PrefixPeakBytes;
    ++Hits;
    hitsCtr().add(1);
    publishGaugesLocked();
    return I;
  }
  ++Misses;
  missesCtr().add(1);
  publishGaugesLocked();
  return 0;
}

void PropagationCache::store(uint64_t Key, const std::vector<Region> &State,
                             const Shape &StateShape, size_t PrefixPeakBytes,
                             bool Final) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Budget == 0)
    return;
  auto It = Map.find(Key);
  if (It != Map.end()) {
    // Overwrite: release the resident entry's bytes and its LRU node
    // before charging the replacement, then fall through to the normal
    // admission path. Keeping the old accounting (or worse, charging the
    // new entry on top of it) lets CurBytes drift past Budget, and a
    // stale LRU node would later be erased against the new entry.
    CurBytes -= It->second.Bytes;
    Lru.erase(It->second.LruIt);
    Map.erase(It);
  }
  const size_t B = entryBytes(State);
  if (B == 0 || B > Budget)
    return;
  while (CurBytes + B > Budget && !Lru.empty()) {
    const uint64_t Victim = Lru.back();
    Lru.pop_back();
    auto VIt = Map.find(Victim);
    CurBytes -= VIt->second.Bytes;
    Map.erase(VIt);
    ++Evictions;
    evictionsCtr().add(1);
  }
  Entry E;
  E.State = State;
  E.StateShape = StateShape;
  E.PrefixPeakBytes = PrefixPeakBytes;
  E.Bytes = B;
  E.LruIt = Lru.insert(Final ? Lru.begin() : Lru.end(), Key);
  CurBytes += B;
  Map.emplace(Key, std::move(E));
  ++Insertions;
  insertionsCtr().add(1);
  if (Device)
    (void)Device->tryCharge(CurBytes);
  publishGaugesLocked();
}

} // namespace genprove
