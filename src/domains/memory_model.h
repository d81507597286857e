//===- domains/memory_model.h - Simulated device memory --------*- C++ -*-===//
///
/// \file
/// The paper's scalability results are framed by a 24 GB Titan RTX: exact
/// analyses run out of GPU memory once the number of tracked points
/// explodes, while the relaxed analysis fits. This reproduction runs on
/// CPU, so DeviceMemoryModel charges each abstract state the bytes a GPU
/// resident copy would need (nodes x activation-dim x sizeof(double)) and
/// reports OOM when the peak exceeds a configurable budget. The *relative*
/// growth — the thing the paper's Tables 3 and 8 measure — is preserved
/// exactly.
///
/// Two kinds of callers use the model:
///
///  * legacy callers charge() and abort the analysis on failure — the
///    failed charge is recorded in the peak, so the model stays exhausted;
///  * resilient callers tryCharge() before committing a state: a charge
///    that would not fit leaves the model untouched, so the caller can
///    roll back to a checkpoint, coarsen, and try again.
///
/// A charge interceptor hook lets the fault-injection harness force
/// deterministic OOM at a chosen layer without shrinking the budget.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_DOMAINS_MEMORY_MODEL_H
#define GENPROVE_DOMAINS_MEMORY_MODEL_H

#include "src/obs/metrics.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace genprove {

/// Bytes of a device-resident state of Nodes points of Dim doubles each,
/// saturating instead of wrapping. Negative inputs (corrupt bookkeeping)
/// and products that overflow size_t both saturate to SIZE_MAX, which any
/// finite budget rejects — a wrapped product could silently pass.
inline size_t stateBytes(int64_t Nodes, int64_t Dim) {
  constexpr size_t Saturated = std::numeric_limits<size_t>::max();
  if (Nodes < 0 || Dim < 0)
    return Saturated;
  const uint64_t N = static_cast<uint64_t>(Nodes);
  const uint64_t D = static_cast<uint64_t>(Dim);
  if (N != 0 && D > Saturated / N)
    return Saturated;
  const uint64_t Points = N * D;
  if (Points > Saturated / sizeof(double))
    return Saturated;
  return static_cast<size_t>(Points * sizeof(double));
}

/// Byte accounting with a budget; analyses poll ok() after each charge.
class DeviceMemoryModel {
public:
  /// Forced-failure hook for fault injection: return true to make the next
  /// charge fail regardless of the budget.
  using ChargeInterceptor = std::function<bool(size_t Bytes)>;

  /// Budget of 0 means unlimited.
  explicit DeviceMemoryModel(size_t BudgetBytes = 0)
      : BudgetBytes(BudgetBytes) {}

  /// Charge the current abstract state size; returns false once the peak
  /// exceeds the budget (the analysis should abort with OOM).
  /// Thread-safe: the peak is a CAS max, so concurrent charge/tryCharge
  /// calls from pool workers never lose an update. The interceptor hook
  /// itself is installed before propagation starts and only consulted
  /// here; resilient propagation funnels all charges through a single
  /// post-join call per layer, so interceptor firing stays deterministic.
  bool charge(size_t Bytes) {
    updatePeak(Bytes);
    if (Interceptor && Interceptor(Bytes)) {
      noteChargeFailure(/*Try=*/false);
      return false;
    }
    if (BudgetBytes != 0 &&
        PeakBytes.load(std::memory_order_relaxed) > BudgetBytes) {
      noteChargeFailure(/*Try=*/false);
      return false;
    }
    return true;
  }

  /// Charge a state of Nodes representation points of Dim doubles each.
  bool chargeState(int64_t Nodes, int64_t Dim) {
    return charge(stateBytes(Nodes, Dim));
  }

  /// Charge only if the state fits: on success the peak is updated and the
  /// call returns true; on failure the model is left untouched, so a
  /// resilient caller can roll back and retry with a smaller state.
  bool tryCharge(size_t Bytes) {
    if (Interceptor && Interceptor(Bytes)) {
      noteChargeFailure(/*Try=*/true);
      return false;
    }
    if (BudgetBytes != 0 && Bytes > BudgetBytes) {
      noteChargeFailure(/*Try=*/true);
      return false;
    }
    updatePeak(Bytes);
    return true;
  }

  bool tryChargeState(int64_t Nodes, int64_t Dim) {
    return tryCharge(stateBytes(Nodes, Dim));
  }

  /// Install (or clear, with an empty function) the fault-injection hook.
  void setInterceptor(ChargeInterceptor Hook) {
    Interceptor = std::move(Hook);
  }

  size_t peakBytes() const {
    return PeakBytes.load(std::memory_order_relaxed);
  }
  size_t budgetBytes() const { return BudgetBytes; }
  bool exhausted() const {
    return BudgetBytes != 0 &&
           PeakBytes.load(std::memory_order_relaxed) > BudgetBytes;
  }

  void reset() { PeakBytes.store(0, std::memory_order_relaxed); }

private:
  void updatePeak(size_t Bytes) {
    size_t Cur = PeakBytes.load(std::memory_order_relaxed);
    while (Bytes > Cur &&
           !PeakBytes.compare_exchange_weak(Cur, Bytes,
                                            std::memory_order_relaxed)) {
    }
    if (BudgetBytes != 0 && metricsEnabled()) {
      static Gauge &Ratio =
          MetricsRegistry::global().gauge("device.peak_budget_ratio");
      Ratio.setMax(static_cast<double>(
                       PeakBytes.load(std::memory_order_relaxed)) /
                   static_cast<double>(BudgetBytes));
    }
  }

  /// Rejected charges used to vanish into a bool; count them so memory
  /// pressure shows up in the metrics snapshot (docs/OBSERVABILITY.md).
  static void noteChargeFailure(bool Try) {
    if (!metricsEnabled())
      return;
    static Counter &ChargeFailures =
        MetricsRegistry::global().counter("device.charge_failures");
    static Counter &TryChargeFailures =
        MetricsRegistry::global().counter("device.try_charge_failures");
    (Try ? TryChargeFailures : ChargeFailures).add(1);
  }

  size_t BudgetBytes;
  std::atomic<size_t> PeakBytes{0};
  ChargeInterceptor Interceptor;
};

} // namespace genprove

#endif // GENPROVE_DOMAINS_MEMORY_MODEL_H
