//===- tools/genprove_audit.cpp - soundness containment audit ---*- C++ -*-===//
//
// Run the Monte-Carlo containment audit (src/audit) over the built-in
// model zoo: sample latent points, push them through the concrete
// round-to-nearest forward pass, and assert every concrete output lies
// inside the abstract output bounds computed with SoundRounding enabled —
// for box, zonotope, DeepZono and hybrid zonotope. Also checks that
// exact-segment probability bounds nest inside relaxed ones, and reports
// the per-layer dilation the directed rounding costs.
//
// Usage:
//   genprove_audit [--samples N] [--seed S] [--no-differential]
//                  [--report-out FILE.json] [--metrics-out FILE.json]
//
// Exit codes: 0 = zero violations and differential nesting holds,
// 1 = at least one containment violation or nesting failure,
// 2 = usage error. docs/SOUNDNESS.md documents the methodology.
//
//===----------------------------------------------------------------------===//

#include "src/audit/audit.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/parse.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

using namespace genprove;

namespace {

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr, "genprove_audit: %s\n", Message);
  std::fprintf(stderr,
               "usage: genprove_audit [--samples N] [--seed S]\n"
               "                      [--no-differential]\n"
               "                      [--report-out FILE.json]\n"
               "                      [--metrics-out FILE.json]\n"
               "\n"
               "exit codes: 0 all concrete samples contained and exact\n"
               "              bounds nest inside relaxed bounds,\n"
               "            1 containment or nesting violation,\n"
               "            2 usage error\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  AuditConfig Config;
  std::string ReportOutPath, MetricsOutPath;

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Arg).c_str());
      return Argv[++I];
    };
    if (Arg == "--samples") {
      if (!parseNumber(Next(), Config.SamplesPerModel))
        usage("--samples wants a number");
    } else if (Arg == "--seed") {
      if (!parseNumber(Next(), Config.Seed))
        usage("--seed wants a number");
    } else if (Arg == "--no-differential")
      Config.Differential = false;
    else if (Arg == "--report-out")
      ReportOutPath = Next();
    else if (Arg == "--metrics-out")
      MetricsOutPath = Next();
    else
      usage(("unknown option: " + Arg).c_str());
  }
  if (Config.SamplesPerModel <= 0)
    usage("--samples must be positive");

  setMetricsEnabled(true); // the dilation metrics are the point
  const AuditReport Report = auditBuiltinZoo(Config);

  for (const ModelAudit &M : Report.Models) {
    for (const DomainAudit &Dom : M.Domains) {
      if (Dom.OutOfMemory)
        std::printf("%-20s %-10s OOM\n", M.Model.c_str(),
                    Dom.Domain.c_str());
      else
        std::printf("%-20s %-10s %lld samples, %lld violations\n",
                    M.Model.c_str(), Dom.Domain.c_str(),
                    static_cast<long long>(Dom.Samples),
                    static_cast<long long>(Dom.Violations));
    }
    if (!M.DifferentialOk)
      std::printf("%-20s differential FAILED: %s\n", M.Model.c_str(),
                  M.DifferentialNote.c_str());
  }
  std::printf("total: %lld samples, %lld violations, max layer dilation "
              "%.3e\n",
              static_cast<long long>(Report.TotalSamples),
              static_cast<long long>(Report.TotalViolations),
              Report.MaxDilationRel);

  if (!ReportOutPath.empty()) {
    const std::string Json = auditReportJson(Report);
    std::string Error;
    if (!validateJson(Json, &Error)) {
      std::fprintf(stderr, "genprove_audit: report JSON invalid: %s\n",
                   Error.c_str());
      return 1;
    }
    std::ofstream Out(ReportOutPath);
    if (!Out || !(Out << Json)) {
      std::fprintf(stderr, "genprove_audit: cannot write report to %s\n",
                   ReportOutPath.c_str());
      return 1;
    }
  }
  if (!MetricsOutPath.empty() &&
      !MetricsRegistry::global().writeJson(MetricsOutPath))
    std::fprintf(stderr, "genprove_audit: cannot write metrics to %s\n",
                 MetricsOutPath.c_str());

  if (!Report.ok()) {
    std::printf("verdict: UNSOUND (see above)\n");
    return 1;
  }
  std::printf("verdict: sound (zero containment violations)\n");
  return 0;
}
