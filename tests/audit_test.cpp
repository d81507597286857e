//===- tests/audit_test.cpp - containment audit over the zoo ----*- C++ -*-===//
//
// The fuzz-style soundness check: >= 1000 seeded latent samples per zoo
// model, every concrete round-to-nearest output must lie inside the box
// AND zonotope-family bounds computed with SoundRounding on.
//
//===----------------------------------------------------------------------===//

#include "src/audit/audit.h"
#include "src/obs/json.h"
#include "src/util/fp.h"

#include <gtest/gtest.h>

namespace genprove {
namespace {

AuditConfig fuzzConfig() {
  AuditConfig Config;
  Config.SamplesPerModel = 1000;
  Config.Seed = 0x5eed5eedull;
  Config.Differential = true;
  return Config;
}

TEST(Audit, ZooHasZeroContainmentViolations) {
  const AuditReport Report = auditBuiltinZoo(fuzzConfig());
  EXPECT_EQ(Report.TotalViolations, 0);
  EXPECT_TRUE(Report.ok());
  // Three models, >= 1000 samples each, several domains each.
  EXPECT_EQ(Report.Models.size(), 3u);
  EXPECT_GE(Report.TotalSamples, 3 * 1000);
  for (const ModelAudit &M : Report.Models) {
    EXPECT_GE(M.Domains.size(), 4u) << M.Model;
    for (const DomainAudit &Dom : M.Domains) {
      EXPECT_FALSE(Dom.OutOfMemory) << M.Model << "/" << Dom.Domain;
      EXPECT_EQ(Dom.Violations, 0) << M.Model << "/" << Dom.Domain;
      EXPECT_GE(Dom.Samples, 1000) << M.Model << "/" << Dom.Domain;
    }
  }
}

TEST(Audit, DilationStaysFarBelowOnePercent) {
  const AuditReport Report = auditBuiltinZoo(fuzzConfig());
  // Outward rounding must cost essentially nothing: the acceptance bar is
  // << 1% relative width increase per layer.
  EXPECT_GE(Report.MaxDilationRel, 0.0);
  EXPECT_LT(Report.MaxDilationRel, 0.01);
  for (const ModelAudit &M : Report.Models) {
    EXPECT_FALSE(M.Layers.empty()) << M.Model;
    for (const LayerDilation &L : M.Layers) {
      EXPECT_GE(L.MeanRel, 0.0) << M.Model << " layer " << L.Index;
      EXPECT_LE(L.MeanRel, L.MaxRel + 1e-15) << M.Model << " layer " << L.Index;
      EXPECT_LT(L.MaxRel, 0.01) << M.Model << " layer " << L.Index;
    }
  }
}

TEST(Audit, DifferentialNestingHolds) {
  const AuditReport Report = auditBuiltinZoo(fuzzConfig());
  for (const ModelAudit &M : Report.Models)
    EXPECT_TRUE(M.DifferentialOk) << M.Model << ": " << M.DifferentialNote;
}

TEST(Audit, DeterministicAcrossRuns) {
  AuditConfig Config = fuzzConfig();
  Config.SamplesPerModel = 64; // keep the repeat cheap
  Config.Differential = false;
  const AuditReport A = auditBuiltinZoo(Config);
  const AuditReport B = auditBuiltinZoo(Config);
  ASSERT_EQ(A.Models.size(), B.Models.size());
  EXPECT_EQ(A.TotalSamples, B.TotalSamples);
  EXPECT_EQ(A.TotalViolations, B.TotalViolations);
  EXPECT_DOUBLE_EQ(A.MaxDilationRel, B.MaxDilationRel);
  for (size_t I = 0; I < A.Models.size(); ++I) {
    ASSERT_EQ(A.Models[I].Layers.size(), B.Models[I].Layers.size());
    for (size_t J = 0; J < A.Models[I].Layers.size(); ++J) {
      EXPECT_DOUBLE_EQ(A.Models[I].Layers[J].MeanRel,
                       B.Models[I].Layers[J].MeanRel);
      EXPECT_DOUBLE_EQ(A.Models[I].Layers[J].MaxRel,
                       B.Models[I].Layers[J].MaxRel);
    }
  }
}

TEST(Audit, RestoresSoundRoundingState) {
  EXPECT_FALSE(soundRoundingEnabled());
  AuditConfig Config = fuzzConfig();
  Config.SamplesPerModel = 8;
  Config.Differential = false;
  (void)auditBuiltinZoo(Config);
  EXPECT_FALSE(soundRoundingEnabled());
}

TEST(Audit, ReportJsonValidates) {
  AuditConfig Config = fuzzConfig();
  Config.SamplesPerModel = 16;
  const AuditReport Report = auditBuiltinZoo(Config);
  const std::string Json = auditReportJson(Report);
  std::string Error;
  EXPECT_TRUE(validateJson(Json, &Error)) << Error;
  EXPECT_NE(Json.find("\"total_violations\""), std::string::npos);
  EXPECT_NE(Json.find("\"max_dilation_rel\""), std::string::npos);
  EXPECT_NE(Json.find("\"domains\""), std::string::npos);
}

} // namespace
} // namespace genprove
