//===- serve/registry.h - Resident model registry --------------*- C++ -*-===//
///
/// \file
/// The daemon's load-model-once store: serialized networks registered at
/// startup (`--net NAME=PATH[+PATH2...]`) are deserialized and validated
/// (serialize.h: geometry, shapes, finite weights) a single time, and served
/// to every request as an immutable pipeline view. Requests reference
/// models by name, so the per-request cost is a map lookup instead of the
/// CLI's cold-start deserialize — the "load the model zoo once" half of
/// ROADMAP item 1.
///
/// The registry is written once before the server starts accepting and
/// only read afterwards, so lookups are lock-free by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_SERVE_REGISTRY_H
#define GENPROVE_SERVE_REGISTRY_H

#include "src/nn/sequential.h"

#include <map>
#include <string>
#include <vector>

namespace genprove {

/// One registered model pipeline (decoder [+ classifier ...]).
struct RegisteredModel {
  std::string Name;
  std::vector<std::string> Paths;
  std::vector<Sequential> Networks;
  std::vector<const Layer *> Pipeline; ///< concatenated layer view
};

class ModelRegistry {
public:
  /// Parse `NAME=PATH[+PATH2...]` and load every stage. False (with a
  /// message in \p Err) on parse failure, duplicate name, or a file
  /// loadNetwork refuses (unreadable, malformed geometry or shapes, a
  /// non-finite weight) — a poisoned model must be rejected at startup,
  /// not discovered one bound at a time.
  bool registerModel(const std::string &Spec, std::string *Err);

  const RegisteredModel *find(const std::string &Name) const;

  std::vector<std::string> names() const;
  size_t size() const { return Models.size(); }

private:
  std::map<std::string, RegisteredModel> Models;
};

} // namespace genprove

#endif // GENPROVE_SERVE_REGISTRY_H
