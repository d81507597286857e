//===- nn/serialize.h - Network (de)serialization --------------*- C++ -*-===//
///
/// \file
/// A tiny binary format for trained networks so the benchmark harnesses can
/// cache models under models/ and reload them deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef GENPROVE_NN_SERIALIZE_H
#define GENPROVE_NN_SERIALIZE_H

#include "src/nn/sequential.h"

#include <optional>
#include <string>

namespace genprove {

/// Write the architecture and all parameters to \p Path. Returns false on
/// I/O failure.
bool saveNetwork(const Sequential &Network, const std::string &Path);

/// Read a network previously written by saveNetwork. Returns nullopt on a
/// missing file or format mismatch, and on a file no layer could run
/// safely: a channel, kernel, stride, feature count or Reshape dimension
/// that is not positive, a weight or activation of 2^31 elements or more,
/// negative padding, output padding not below the stride, a stored weight
/// or bias shape other than the one the layer declares, or a non-finite
/// parameter. \p Why, when given, receives the reason.
std::optional<Sequential> loadNetwork(const std::string &Path,
                                      std::string *Why = nullptr);

} // namespace genprove

#endif // GENPROVE_NN_SERIALIZE_H
