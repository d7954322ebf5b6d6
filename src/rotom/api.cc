#include "rotom/api.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rotom_trainer.h"
#include "core/train_checkpoint.h"
#include "core/train_loop.h"

namespace rotom {
namespace api {

namespace {

// Returns a non-OK status if any example's label falls outside
// [0, num_classes); `split` names the offending split in the message.
Status CheckLabels(const std::vector<data::Example>& examples,
                   int64_t num_classes, const char* split) {
  for (size_t i = 0; i < examples.size(); ++i) {
    const int64_t label = examples[i].label;
    if (label < 0 || label >= num_classes) {
      return Status::Error("TrainSpec: " + std::string(split) + " example " +
                           std::to_string(i) + " has label " +
                           std::to_string(label) + ", outside [0, " +
                           std::to_string(num_classes) + ")");
    }
  }
  return Status::Ok();
}

Status ValidateDataset(const data::TaskDataset& dataset, bool streaming) {
  if (!streaming && dataset.train.empty())
    return Status::Error("TrainSpec: dataset.train is empty");
  if (dataset.num_classes < 2) {
    return Status::Error("TrainSpec: num_classes must be >= 2, got " +
                         std::to_string(dataset.num_classes));
  }
  const int64_t classes = dataset.num_classes;
  if (Status s = CheckLabels(dataset.train, classes, "train"); !s.ok())
    return s;
  if (Status s = CheckLabels(dataset.valid, classes, "valid"); !s.ok())
    return s;
  if (Status s = CheckLabels(dataset.test, classes, "test"); !s.ok())
    return s;
  return Status::Ok();
}

// Checks that a resume checkpoint fits the run before it starts: its
// trainer state against a model built like the run's, and its stream state
// against the stream, which this fast-forwards to it (the trainer's own
// replay then finds the stream already there).
Status CheckResume(const core::TrainCheckpoint& ckpt,
                   const eval::TaskContext& context, eval::Method method) {
  const eval::ExperimentOptions& options = context.options();
  Rng rng(0);  // the model is built for its shapes only
  const models::TransformerClassifier model(options.classifier,
                                            context.vocab_ptr(), rng);
  const int64_t max_steps = options.pipeline.streaming.max_steps;
  const bool rotom =
      method == eval::Method::kRotom || method == eval::Method::kRotomSsl;
  const Status fits =
      rotom ? core::RotomTrainer::CheckResumeCheckpoint(ckpt, model, max_steps)
            : core::CheckResumeCheckpoint(ckpt, model, max_steps);
  if (!fits.ok()) return fits;
  return stream::RestoreByReplay(
      *options.pipeline.streaming.source,
      stream::StreamState::Parse(ckpt.GetScalar("stream").value()).value());
}

}  // namespace

StatusOr<TrainReport> Train(const TrainSpec& spec) {
  if (spec.source.kind == data::DataSource::Kind::kNone) {
    return Status::Error("TrainSpec: no data source (set TrainSpec.source)");
  }
  auto opened = data::OpenSource(spec.source);
  if (!opened.ok()) return opened.status();

  const bool streaming = opened.value().stream != nullptr;
  data::TaskDataset dataset = std::move(opened.value().dataset);
  if (Status s = ValidateDataset(dataset, streaming); !s.ok()) return s;
  if (dataset.valid.empty()) dataset.valid = dataset.train;
  if (streaming && dataset.valid.empty()) {
    return Status::Error(
        "TrainSpec: streaming source produced an empty validation split");
  }

  eval::ExperimentOptions options = spec.options;
  std::optional<core::TrainCheckpoint> resume;
  if (streaming) {
    const data::DataSource::StreamSpec& stream_spec =
        opened.value().stream_spec;
    core::StreamingOptions& streaming_options = options.pipeline.streaming;
    streaming_options.source = opened.value().stream;
    streaming_options.max_steps = stream_spec.max_steps;
    streaming_options.valid_every = stream_spec.valid_every;
    streaming_options.checkpoint_path = stream_spec.checkpoint_path;
    streaming_options.resume_from = stream_spec.resume_from;
    // The checkpoint is the caller's input: a missing, truncated or corrupt
    // file, or one that does not fit this run, is reported here instead of
    // aborting inside the trainer.
    if (!stream_spec.resume_from.empty()) {
      auto checkpoint = core::TrainCheckpoint::Load(stream_spec.resume_from);
      if (!checkpoint.ok()) return checkpoint.status();
      resume = std::move(checkpoint).value();
    }
  }

  eval::TaskContext context(std::move(dataset), std::move(options));
  if (resume) {
    if (Status s = CheckResume(*resume, context, spec.method); !s.ok())
      return s;
  }
  std::unique_ptr<models::TransformerClassifier> model;
  TrainReport report;
  report.metrics = context.Run(spec.method, spec.seed, &model);
  ROTOM_CHECK(model != nullptr);
  report.snapshot = serve::Snapshot::FromModel(*model, context.idf());
  return report;
}

}  // namespace api
}  // namespace rotom
