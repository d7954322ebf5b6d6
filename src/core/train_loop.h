#ifndef ROTOM_CORE_TRAIN_LOOP_H_
#define ROTOM_CORE_TRAIN_LOOP_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/finetune.h"
#include "core/train_checkpoint.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "stream/stream.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rotom {
namespace core {

/// Where an optimizer step sits in the run.
struct StepInfo {
  /// The epoch, or the validation round of a stream (step / valid_every).
  int64_t round = 0;
  /// Meta-update cadence index: the step's index within its epoch, or the
  /// global step of a stream.
  int64_t cadence = 0;
};

/// An example pulled from the stream, with the seed its augmentations draw
/// from (keyed by its global draw index, so a resumed run redraws them).
struct DrawnExample {
  data::Example example;
  uint64_t seed = 0;
};

/// Augments `n` examples across the compute pool: element i is
/// `augment(i, rng)` with `rng` seeded by `seed(i)`. Each example draws only
/// from its own Rng, so the result is the same at any thread count.
template <typename Seed, typename Augment>
auto AugmentEach(size_t n, const Seed& seed, const Augment& augment) {
  std::vector<std::invoke_result_t<const Augment&, size_t, Rng&>> out(n);
  ComputePool().ParallelFor(
      static_cast<int64_t>(n), 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          Rng rng(seed(static_cast<size_t>(i)));
          out[i] = augment(static_cast<size_t>(i), rng);
        }
      });
  return out;
}

/// What a trainer plugs into the TrainLoop; `Batch` is what its step
/// consumes. Every hook runs on the thread that trains, in step order.
template <typename Batch>
struct TrainLoopHooks {
  /// Epoch source: `begin_epoch` runs before each epoch, draws from the run
  /// Rng, materializes the epoch and returns its size in items;
  /// `epoch_batch` assembles items [begin, end).
  std::function<size_t(Rng& run_rng)> begin_epoch;
  std::function<Batch(size_t begin, size_t end)> epoch_batch;
  /// Stream source: one batch from `pulls_per_batch` pulled examples.
  int64_t pulls_per_batch = 1;
  std::function<Batch(const std::vector<DrawnExample>& drawn)> stream_batch;
  /// One optimizer step; returns its loss. Fills `record` (null when run
  /// logging is off) except step, epoch and loss, which the loop sets.
  std::function<float(Batch batch, Rng& rng, const StepInfo& info,
                      obs::RunLogStep* record)>
      step;
  /// Optional: the ending round's keep fraction for the epoch event.
  std::function<double()> end_round;
  /// The trainer's RTCK1 state beyond the fields the loop writes.
  std::function<void(TrainCheckpoint& ckpt)> save_state;
  std::function<void(const TrainCheckpoint& ckpt)> load_state;
};

/// What a trainer hands its TrainLoop besides the hooks.
struct TrainLoopContext {
  models::TransformerClassifier* model = nullptr;
  nn::Adam* optimizer = nullptr;  // the model's; RTCK1 `opt_model.*`
  const data::TaskDataset* ds = nullptr;
  eval::MetricKind metric = eval::MetricKind::kAccuracy;
  text::EncodingCache* cache = nullptr;
  const PipelineOptions* pipeline = nullptr;
  int64_t epochs = 0;
  int64_t batch_size = 0;
  uint64_t seed = 0;
  Rng* rng = nullptr;  // the run's sequential Rng
  // The run log (obs/runlog.h) the loop opens, and the trainer's manifest
  // fields; the loop adds the streaming ones.
  const char* runlog_tag = "";
  obs::RunLogManifest manifest;
};

/// Checks that `ckpt` holds what TrainLoop reads to resume training `model`
/// for at most `max_steps` steps, before any of it is loaded: the scalars
/// `step` (in [0, max_steps]), `best_metric`, `epochs_run` and a parsable
/// `stream` state, and `model.*`, `best.*` and `opt_model.*` under the names
/// and shapes of the model's own checkpoint.
Status CheckResumeCheckpoint(const TrainCheckpoint& ckpt,
                             const models::TransformerClassifier& model,
                             int64_t max_steps);

/// The one step loop of FinetuneTrainer and RotomTrainer (DESIGN.md §8,
/// §14). `pipeline.streaming.enabled()` picks the batch source: `epochs`
/// rounds, each materialized and shuffled then sliced into batches; or
/// `max_steps` batches pulled from an ExampleStream, in rounds of
/// `valid_every` steps. Each batch is built on the training thread right
/// before its step; the trainers fan its augmentation out over the compute
/// pool.
///
/// The loop owns what the trainers share. Epoch mode threads the run's one
/// sequential Rng through every step and restarts the meta cadence at every
/// epoch; a stream derives step k's Rng from the run seed and k, and its
/// cadence is k. At every round boundary it validates, keeps the best
/// weights and logs the `epoch` event; a stream also logs `stream_state`
/// and writes the RTCK1 checkpoint it resumes from bit-identically. Run
/// restores the best weights before returning.
class TrainLoop {
 public:
  explicit TrainLoop(const TrainLoopContext& context);

  template <typename Batch>
  TrainResult Run(const TrainLoopHooks<Batch>& hooks);

 private:
  void Resume(const std::function<void(const TrainCheckpoint&)>& load_state);
  // Pulls `count` examples with their augmentation seeds; a stream error is
  // fatal.
  std::vector<DrawnExample> Pull(int64_t count);
  void RecordStep(float loss, int64_t round, obs::RunLogStep& record);
  void EndRound(int64_t round, double keep_fraction,
                const std::function<void(TrainCheckpoint&)>& save_state);
  TrainResult Finish();

  const TrainLoopContext context_;
  const std::unique_ptr<obs::RunLog> runlog_;  // null = run logging off
  stream::ExampleStream* const stream_;  // null = epoch mode
  const int64_t max_steps_;
  int64_t valid_every_ = 0;
  uint64_t gen_seed_ = 0;
  uint64_t step_salt_ = 0;
  int64_t step_ = 0;  // global optimizer step
  double best_metric_ = -1.0;
  NamedTensors best_state_;
  TrainResult result_;
};

template <typename Batch>
TrainResult TrainLoop::Run(const TrainLoopHooks<Batch>& hooks) {
  auto end_round = [&](int64_t round) {
    EndRound(round, hooks.end_round ? hooks.end_round() : -1.0,
             hooks.save_state);
  };
  Resume(hooks.load_state);
  const bool streaming = stream_ != nullptr;
  const size_t batch_size = static_cast<size_t>(context_.batch_size);
  // An epoch is one round; a stream is one pass over all its rounds.
  for (int64_t epoch = 0; epoch < (streaming ? 1 : context_.epochs); ++epoch) {
    const size_t epoch_size = streaming ? 0 : hooks.begin_epoch(*context_.rng);
    auto produce = [&](size_t begin) -> Batch {
      if (!streaming) {
        return hooks.epoch_batch(begin,
                                 std::min(begin + batch_size, epoch_size));
      }
      ROTOM_TRACE_SPAN("stream.batch");
      return hooks.stream_batch(Pull(hooks.pulls_per_batch));
    };
    context_.model->SetTraining(true);

    for (int64_t in_epoch = 0;; ++in_epoch) {
      const size_t begin = static_cast<size_t>(in_epoch) * batch_size;
      if (streaming ? step_ >= max_steps_ : begin >= epoch_size) break;
      WallTimer produce_timer;
      Batch batch = produce(begin);
      obs::GetHistogram("stream.stall_us")
          .Record(static_cast<uint64_t>(produce_timer.Seconds() * 1e6));
      const StepInfo info = streaming ? StepInfo{step_ / valid_every_, step_}
                                      : StepInfo{epoch, in_epoch};
      Rng stream_rng(SplitSeed(step_salt_, static_cast<uint64_t>(step_)));
      obs::RunLogStep record;
      const float loss =
          hooks.step(std::move(batch), streaming ? stream_rng : *context_.rng,
                     info, runlog_ != nullptr ? &record : nullptr);
      RecordStep(loss, info.round, record);
      ++step_;
      if (streaming && (step_ % valid_every_ == 0 || step_ == max_steps_)) {
        end_round((step_ - 1) / valid_every_);
      }
    }
    if (!streaming) end_round(epoch);
  }
  return Finish();
}

}  // namespace core
}  // namespace rotom

#endif  // ROTOM_CORE_TRAIN_LOOP_H_
