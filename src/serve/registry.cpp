//===- serve/registry.cpp -------------------------------------*- C++ -*-===//

#include "src/serve/registry.h"

#include "src/nn/serialize.h"

namespace genprove {

namespace {

bool fail(std::string *Err, std::string Message) {
  if (Err)
    *Err = std::move(Message);
  return false;
}

} // namespace

bool ModelRegistry::registerModel(const std::string &Spec, std::string *Err) {
  const size_t Eq = Spec.find('=');
  if (Eq == std::string::npos || Eq == 0 || Eq + 1 >= Spec.size())
    return fail(Err, "--net wants NAME=PATH[+PATH2...]: " + Spec);
  RegisteredModel M;
  M.Name = Spec.substr(0, Eq);
  if (Models.count(M.Name))
    return fail(Err, "duplicate model name: " + M.Name);

  size_t Pos = Eq + 1;
  while (Pos <= Spec.size()) {
    const size_t Plus = Spec.find('+', Pos);
    const std::string Path = Plus == std::string::npos
                                 ? Spec.substr(Pos)
                                 : Spec.substr(Pos, Plus - Pos);
    if (Path.empty())
      return fail(Err, "empty path in model spec: " + Spec);
    M.Paths.push_back(Path);
    if (Plus == std::string::npos)
      break;
    Pos = Plus + 1;
  }

  for (const std::string &Path : M.Paths) {
    std::string Why;
    auto Net = loadNetwork(Path, &Why);
    if (!Net)
      return fail(Err, "cannot load network " + Path + ": " + Why);
    M.Networks.push_back(std::make_unique<Sequential>(std::move(*Net)));
  }
  for (const auto &Net : M.Networks)
    M.Pipeline = concatViews(M.Pipeline, Net->view());

  Models.emplace(M.Name, std::move(M));
  return true;
}

const RegisteredModel *ModelRegistry::find(const std::string &Name) const {
  const auto It = Models.find(Name);
  return It == Models.end() ? nullptr : &It->second;
}

std::vector<std::string> ModelRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Models.size());
  for (const auto &[Name, M] : Models)
    Out.push_back(Name);
  return Out;
}

} // namespace genprove
