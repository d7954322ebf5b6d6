#include "core/train_loop.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace rotom {
namespace core {

namespace {

// Per-purpose seed streams of a stream source, split from the run seed:
// augmentation (keyed by global example draw) and per-step training
// randomness (keyed by global step). Arbitrary but frozen: changing either
// breaks resume of old checkpoints.
constexpr uint64_t kStreamGenSalt = 0x526f746f6d477331ULL;
constexpr uint64_t kStreamStepSalt = 0x526f746f6d537432ULL;

}  // namespace

Status CheckResumeCheckpoint(const TrainCheckpoint& ckpt,
                             const models::TransformerClassifier& model,
                             int64_t max_steps) {
  auto step = ckpt.GetInt("step");
  if (!step.ok()) return step.status();
  if (step.value() < 0 || step.value() > max_steps) {
    return Status::Error("checkpoint step " + std::to_string(step.value()) +
                         " is outside [0, " + std::to_string(max_steps) +
                         "]");
  }
  if (auto best = ckpt.GetDouble("best_metric"); !best.ok())
    return best.status();
  if (auto epochs = ckpt.GetInt("epochs_run"); !epochs.ok())
    return epochs.status();
  auto state = ckpt.GetScalar("stream");
  if (!state.ok()) return state.status();
  if (auto parsed = stream::StreamState::Parse(state.value()); !parsed.ok())
    return parsed.status();
  for (const char* prefix : {"model.", "best."}) {
    if (Status s = ckpt.CheckTensors(model.StateDict(prefix)); !s.ok())
      return s;
  }
  return ckpt.CheckOptimizer("opt_model.", model.Parameters());
}

TrainLoop::TrainLoop(const TrainLoopContext& context)
    : context_(context),
      runlog_(obs::RunLog::Open(
          {context.pipeline->runlog_dir, context.runlog_tag})),
      stream_(context.pipeline->streaming.source.get()),
      max_steps_(context.pipeline->streaming.max_steps),
      best_state_(context.model->StateDict()) {
  ROTOM_CHECK(stream_ != nullptr || !context.ds->train.empty());
  // Every round selects the best weights on the valid split; an empty one
  // scores 0 and would keep the first round's weights.
  ROTOM_CHECK_MSG(!context.ds->valid.empty(),
                  "training needs a non-empty valid split");
  if (runlog_) {
    obs::RunLogManifest manifest = context.manifest;
    const StreamingOptions& streaming = context.pipeline->streaming;
    if (stream_ != nullptr) {
      manifest.Set("streaming", true)
          .Set("max_steps", streaming.max_steps)
          .Set("valid_every", streaming.valid_every);
      if (!streaming.resume_from.empty())
        manifest.Set("resumed_from", streaming.resume_from);
    }
    runlog_->WriteManifest(manifest);
  }
  if (stream_ == nullptr) return;
  ROTOM_CHECK_GT(max_steps_, 0);
  const int64_t epochs = std::max<int64_t>(1, context.epochs);
  valid_every_ = context.pipeline->streaming.valid_every > 0
                     ? context.pipeline->streaming.valid_every
                     : std::max<int64_t>(1, (max_steps_ + epochs - 1) / epochs);
  gen_seed_ = SplitSeed(context.seed, kStreamGenSalt);
  step_salt_ = SplitSeed(context.seed, kStreamStepSalt);
}

void TrainLoop::Resume(
    const std::function<void(const TrainCheckpoint&)>& load_state) {
  if (stream_ == nullptr) return;
  const std::string& path = context_.pipeline->streaming.resume_from;
  if (path.empty()) return;
  auto loaded = TrainCheckpoint::Load(path);
  ROTOM_CHECK_MSG(loaded.ok(), loaded.status().message().c_str());
  const TrainCheckpoint& ckpt = loaded.value();
  const Status fits =
      CheckResumeCheckpoint(ckpt, *context_.model, max_steps_);
  ROTOM_CHECK_MSG(fits.ok(), fits.message().c_str());
  context_.model->LoadStateDict(ckpt.tensors(), "model.");
  ckpt.LoadOptimizer("opt_model.", *context_.optimizer);
  best_state_.clear();
  for (const auto& [name, tensor] : ckpt.tensors()) {
    if (name.rfind("best.", 0) == 0) {
      best_state_.emplace_back(name.substr(5), tensor.Clone());
    }
  }
  best_metric_ = ckpt.GetDouble("best_metric").value();
  result_.epochs_run = ckpt.GetInt("epochs_run").value();
  step_ = ckpt.GetInt("step").value();
  if (load_state) load_state(ckpt);
  const Status replayed = stream::RestoreByReplay(
      *stream_,
      stream::StreamState::Parse(ckpt.GetScalar("stream").value()).value());
  ROTOM_CHECK_MSG(replayed.ok(), replayed.message().c_str());
}

std::vector<DrawnExample> TrainLoop::Pull(int64_t count) {
  std::vector<DrawnExample> drawn;
  for (int64_t j = 0; j < count; ++j) {
    const uint64_t draw_index = static_cast<uint64_t>(stream_->draws());
    auto example = stream_->Next();
    ROTOM_CHECK_MSG(example.ok(), example.status().message().c_str());
    drawn.push_back({std::move(example).value(),
                     SplitSeed(gen_seed_, draw_index)});
  }
  return drawn;
}

void TrainLoop::RecordStep(float loss, int64_t round,
                           obs::RunLogStep& record) {
  result_.loss_history.push_back(loss);
  ++result_.steps;
  if (runlog_ == nullptr) return;
  record.step = result_.steps;
  record.epoch = round;
  record.loss = static_cast<double>(loss);
  runlog_->LogStep(record);
}

void TrainLoop::EndRound(
    int64_t round, double keep_fraction,
    const std::function<void(TrainCheckpoint&)>& save_state) {
  models::TransformerClassifier& model = *context_.model;
  const double valid_metric = eval::EvaluateModel(
      model, context_.ds->valid, context_.metric, context_.cache);
  if (runlog_) runlog_->LogEpoch(round, valid_metric,
                                                 keep_fraction);
  if (valid_metric > best_metric_) {
    best_metric_ = valid_metric;
    best_state_ = model.StateDict();
  }
  ++result_.epochs_run;
  if (stream_ != nullptr) {
    // Batches are built right before their step, so the stream's cursors
    // are those after the last trained batch.
    const std::string state = stream::CaptureState(*stream_).Serialize();
    if (runlog_) runlog_->LogStreamState(step_, round, state);
    const std::string& path = context_.pipeline->streaming.checkpoint_path;
    if (!path.empty()) {
      TrainCheckpoint ckpt;
      ckpt.SetInt("step", step_);
      ckpt.SetDouble("best_metric", best_metric_);
      ckpt.SetInt("epochs_run", result_.epochs_run);
      ckpt.SetScalar("stream", state);
      ckpt.AddTensors(model.StateDict("model."));
      for (const auto& [name, t] : best_state_)
        ckpt.tensors().emplace_back("best." + name, t.Clone());
      ckpt.AddOptimizer("opt_model.", *context_.optimizer);
      if (save_state) save_state(ckpt);
      auto saved = ckpt.Save(path);
      ROTOM_CHECK_MSG(saved.ok(), saved.message().c_str());
      obs::GetCounter("stream.checkpoint.writes").Add();
    }
  }
  model.SetTraining(true);
}

TrainResult TrainLoop::Finish() {
  context_.model->LoadStateDict(best_state_);
  context_.model->SetTraining(false);
  result_.best_valid_metric = best_metric_;
  if (runlog_) result_.runlog_path = runlog_->path();
  return std::move(result_);
}

}  // namespace core
}  // namespace rotom
