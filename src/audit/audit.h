//===- audit/audit.h - Soundness containment audit -------------*- C++ -*-===//
///
/// \file
/// The empirical half of the sound-rounding story (docs/SOUNDNESS.md): a
/// Monte-Carlo containment oracle that samples latent parameters, runs the
/// concrete round-to-nearest forward pass, and asserts that every concrete
/// output lies inside the abstract output bounds produced with
/// SoundRounding enabled — for the box, zonotope, DeepZono and hybrid
/// zonotope domains over a small zoo of untrained fixed-seed networks.
///
/// The box bounds come from the production Box path (the Box domain's
/// initial box stepped through propagateRegions), so the audit checks the
/// code that answers Box requests. The audit also measures the *cost* of
/// soundness: per-layer dilation of the directed box radii relative to
/// the round-to-nearest radii (exported through the obs metrics registry
/// as audit.layer_dilation_rel / audit.max_dilation_rel, so it lands in
/// run_report.json), and a differential mode that checks exact-segment
/// probability bounds nest inside relaxed ones.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_AUDIT_AUDIT_H
#define GENPROVE_AUDIT_AUDIT_H

#include "src/nn/sequential.h"

#include <string>
#include <vector>

namespace genprove {

struct AuditConfig {
  int64_t SamplesPerModel = 1000; ///< concrete latent points per model.
  uint64_t Seed = 0x5eed5eedull;  ///< deterministic across runs and threads.
  bool Differential = true;       ///< run the exact-vs-relaxed nesting check.
};

/// Dilation of the sound box radii over the round-to-nearest radii after
/// one layer: relative width increase, averaged / maximized over output
/// dimensions.
struct LayerDilation {
  int64_t Index = 0;
  const char *Kind = "";
  double MeanRel = 0.0;
  double MaxRel = 0.0;
};

/// Containment tally for one abstract domain on one model.
struct DomainAudit {
  std::string Domain; ///< "box" | "zonotope" | "deepzono" | "hybrid"
  int64_t Samples = 0;
  int64_t Violations = 0; ///< concrete values outside the sound bounds.
  bool OutOfMemory = false;
};

struct ModelAudit {
  std::string Model;
  std::vector<DomainAudit> Domains;
  std::vector<LayerDilation> Layers;
  bool DifferentialOk = true;
  std::string DifferentialNote;
};

struct AuditReport {
  std::vector<ModelAudit> Models;
  int64_t TotalSamples = 0;
  int64_t TotalViolations = 0;
  double MaxDilationRel = 0.0;

  bool ok() const {
    if (TotalViolations != 0)
      return false;
    for (const ModelAudit &M : Models)
      if (!M.DifferentialOk)
        return false;
    return true;
  }
};

/// Audit one pipeline on one latent segment. \p Layers must start from the
/// flat latent shape \p InputShape ({1, Latent}); Start/End are flat [1, N]
/// endpoints. SoundRounding is toggled internally (enabled for the abstract
/// runs, disabled for the concrete oracle) and restored on return.
ModelAudit auditSegment(const std::string &Name,
                        const std::vector<const Layer *> &Layers,
                        const Shape &InputShape, const Tensor &Start,
                        const Tensor &End, const AuditConfig &Config);

/// Audit the built-in zoo (untrained, fixed-seed kaiming-initialized
/// networks: an MLP, the small decoder, and decoder + classifier); the
/// soundness of the rounding does not depend on trained weights.
AuditReport auditBuiltinZoo(const AuditConfig &Config);

/// Render a report as a JSON document (validated by the audit tool before
/// writing).
std::string auditReportJson(const AuditReport &Report);

} // namespace genprove

#endif // GENPROVE_AUDIT_AUDIT_H
