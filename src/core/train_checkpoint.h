#ifndef ROTOM_CORE_TRAIN_CHECKPOINT_H_
#define ROTOM_CORE_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/optim.h"
#include "tensor/serialize.h"
#include "util/status.h"

namespace rotom {
namespace core {

/// On-disk snapshot of a streaming training run: named tensors (model
/// weights, meta-model weights, optimizer moments, best-so-far state) plus
/// string scalars (step counters, RNG-free stream state, metrics). One file
/// written atomically (tmp + rename) at each validation round, so a killed
/// run resumes from the last completed round with nothing torn.
///
/// Scalars are strings; Int/Double accessors parse on read (doubles
/// round-trip through %.17g, so resumed float comparisons stay
/// bit-identical).
class TrainCheckpoint {
 public:
  void SetScalar(const std::string& key, std::string value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);

  /// Returns the raw scalar, or error if absent.
  StatusOr<std::string> GetScalar(const std::string& key) const;
  StatusOr<int64_t> GetInt(const std::string& key) const;
  StatusOr<double> GetDouble(const std::string& key) const;

  NamedTensors& tensors() { return tensors_; }
  const NamedTensors& tensors() const { return tensors_; }
  /// Tensor lookup by exact name; nullptr when absent.
  const Tensor* FindTensor(const std::string& name) const;

  /// Appends tensors whose names already carry their prefix.
  void AddTensors(NamedTensors tensors);
  /// Adds an optimizer's moments and its step count ("<prefix>step").
  void AddOptimizer(const std::string& prefix, const nn::Adam& optimizer);
  /// Restores what AddOptimizer wrote under `prefix`; CHECK-fails on a
  /// missing or mis-shaped entry.
  void LoadOptimizer(const std::string& prefix, nn::Adam& optimizer) const;

  /// Checks that every tensor of `expected` is here under its name and with
  /// its shape; the error names the first one that is not.
  Status CheckTensors(const NamedTensors& expected) const;
  /// Checks what LoadOptimizer reads under `prefix` for an Adam over
  /// `params`.
  Status CheckOptimizer(const std::string& prefix,
                        const std::vector<Variable>& params) const;

  /// Writes "<path>.tmp" then renames over `path`.
  Status Save(const std::string& path) const;
  static StatusOr<TrainCheckpoint> Load(const std::string& path);

 private:
  std::vector<std::pair<std::string, std::string>> scalars_;
  NamedTensors tensors_;
};

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_TRAIN_CHECKPOINT_H_
