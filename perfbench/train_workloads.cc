// The two training workloads.
//
// train_em_rotom: epoch-mode Rotom (M_F filtering + M_W weighting over
//   InvDA and simple-operator candidates) on the dblp_acm EM generator at
//   the bench model scale (dim 32, max_len 56, batch 16). The paper's
//   headline method on its most expensive Figure-4 cell: meta passes, InvDA
//   sampling and small-shape kernels carry the work.
// train_textcls_stream: step-budgeted streaming MixDA fine-tune on a trec
//   corpus written as CSV during set-up and read back through
//   DataSource::Stream (CsvFileSource -> ShuffleBuffer -> prefetch ring ->
//   trainer). Same trainer/model/optimizer layers, no meta passes; the data
//   path carries a large share.
//
// Both drive the library through eval::TaskContext and data::DataSource,
// the same calls api::Train makes, so that pre-training and the InvDA model
// are built once in set-up and the measured phase is training calls only.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/filtering.h"
#include "core/weighting.h"
#include "data/em_gen.h"
#include "data/source.h"
#include "data/textcls_gen.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "stats.h"
#include "stream/stream.h"
#include "tensor/ops.h"
#include "text/encoding_cache.h"
#include "util/csv.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rotom;  // NOLINT

// Model scale of the Figure-4 benches (2-layer, 32-dim stand-in for the
// paper's LMs). Pre-training and InvDA budgets are cut to keep set-up to
// seconds; they change set-up cost and the score level, not the shapes the
// measured training calls run at.
eval::ExperimentOptions BaseOptions(int64_t max_len, int64_t seq_len) {
  eval::ExperimentOptions o;
  o.classifier.max_len = max_len;
  o.classifier.dim = 32;
  o.classifier.num_heads = 2;
  o.classifier.num_layers = 2;
  o.classifier.ffn_dim = 64;
  o.classifier.dropout = 0.1f;
  o.seq2seq.max_src_len = seq_len;
  o.seq2seq.max_tgt_len = seq_len;
  o.seq2seq.dim = 32;
  o.seq2seq.num_heads = 2;
  o.seq2seq.num_layers = 2;
  o.seq2seq.ffn_dim = 64;
  o.pretrain.epochs = 1;
  o.pretrain.max_corpus = 256;
  o.invda.max_corpus = 256;
  o.invda.augments_per_example = 3;
  o.invda.sampling.max_len = seq_len - 2;
  o.batch_size = 16;
  o.meta_update_every = 2;
  o.ssl_batch_ratio = 0.5;
  return o;
}

eval::ExperimentOptions EmOptions() {
  eval::ExperimentOptions o = BaseOptions(/*max_len=*/56, /*seq_len=*/32);
  o.same_origin.steps = 60;
  o.invda.epochs = 2;
  o.invda.augments_per_example = 2;
  o.invda.sampling.top_k = 3;
  o.invda.corruption_ops = 1;
  o.epochs = 1;
  return o;
}

eval::ExperimentOptions TextClsOptions() {
  eval::ExperimentOptions o = BaseOptions(/*max_len=*/24, /*seq_len=*/24);
  o.epochs = 2;  // sets the validation cadence of the streaming loop
  o.pretrain.epochs = 2;
  o.pretrain.max_corpus = 1024;
  return o;
}

constexpr int64_t kStreamSteps = 60;

// Wall time of one training call at the seed commit on a 4-core host.
constexpr double kEmSecondsPerCall = 2.5;
constexpr double kStreamSecondsPerCall = 1.25;

// Outcome of the measured training calls.
struct Calls {
  std::vector<double> steps_per_s;  // optimizer steps / trainer seconds
  std::vector<double> call_ms;      // wall time of each call
  std::vector<double> peak_rss_mb;  // peak resident memory during each call
  double first_score = 0.0;
};

// Number of training calls for a measured phase of `seconds`: a fixed
// amount of work (the call rate at the seed commit, about one call per
// `seconds_per_call`), not a deadline, so that memory and the per-call
// median do not depend on how fast a particular run happened to go.
int CallsFor(double seconds, double seconds_per_call) {
  return std::max(1, static_cast<int>(std::lround(seconds / seconds_per_call)));
}

// Runs one warm-up call (its test score is the run's score; its time is
// not counted: the buffer pool and the library's caches fill during it)
// and then `count` timed training calls. A call fails when its scores are
// not finite or it took no optimizer step. The peak resident memory is
// taken per call: how much a call needs depends on which candidates it
// draws (some need ~25% more), so the run's single peak would depend on
// whether one such call happened to be among its few.
Calls RunCalls(int count, uint64_t seed,
               const std::function<eval::ExperimentResult(uint64_t)>& call,
               Report* report) {
  Calls calls;
  for (uint64_t i = 0; i <= static_cast<uint64_t>(count); ++i) {
    eval::ExperimentResult r;
    ResetPeakRss();
    const double wall = TimeSeconds([&] { r = call(seed * 1000 + i); });
    const double peak_rss_mb = PeakRssMb();
    report->Attempt();
    const bool ok = std::isfinite(r.test_metric) &&
                    std::isfinite(r.valid_metric) && r.train_steps > 0 &&
                    r.train_seconds > 0.0;
    if (!ok) {
      report->Fail();
      report->MarkIncorrect("training call " + std::to_string(i) +
                            " produced a non-finite score or no step");
      continue;
    }
    std::fprintf(stderr,
                 "perfbench: training call %d: %lld steps in %.3f s, wall "
                 "%.3f s, test score %.4f\n",
                 static_cast<int>(i), static_cast<long long>(r.train_steps),
                 r.train_seconds, wall, r.test_metric);
    if (i == 0) {
      calls.first_score = r.test_metric;
      continue;
    }
    calls.call_ms.push_back(wall * 1e3);
    calls.peak_rss_mb.push_back(peak_rss_mb);
    calls.steps_per_s.push_back(static_cast<double>(r.train_steps) /
                                r.train_seconds);
  }
  return calls;
}

// Host noise only ever slows a call down, and on a shared host a slow
// period can cover most of a run, so the timings keep the run's best call;
// memory keeps the median.
void ReportEndToEnd(const Calls& calls, const std::vector<double>& setups,
                    Report* report) {
  report->Set("setup_s", Median(setups));
  report->Set("throughput_per_s", Max(calls.steps_per_s));
  report->Set("latency_ms", Min(calls.call_ms));
  report->Set("peak_rss_mb", Median(calls.peak_rss_mb));
  std::printf("test score of the first training call: %.4f %%\n",
              calls.first_score);
}

// Mean per-step `keep_rate` over the run logs written under `dir`.
double MeanKeepRate(const std::string& dir) {
  double sum = 0.0;
  int64_t n = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      const size_t pos = line.find("\"keep_rate\":");
      if (pos == std::string::npos) continue;
      const double v = std::strtod(line.c_str() + pos + 12, nullptr);
      if (v >= 0.0) {
        sum += v;
        ++n;
      }
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<std::string> Texts(const std::vector<data::Example>& examples,
                               size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < examples.size() && out.size() < n; ++i)
    out.push_back(examples[i].text);
  return out;
}

// Per-layer probes on one training batch of the workload: encode (miss
// path), forward, backward, optimizer step, a validation sweep, and the
// workload's augmentation operator.
void ProbeTrainingLayers(eval::TaskContext& context, bool rotom_meta,
                         Report* report) {
  const data::TaskDataset& ds = context.dataset();
  const eval::ExperimentOptions& options = context.options();
  const int64_t batch = options.batch_size;
  const std::vector<std::string> texts =
      Texts(ds.train, static_cast<size_t>(batch));
  std::vector<int64_t> labels;
  for (size_t i = 0; i < texts.size(); ++i) labels.push_back(ds.train[i].label);
  const std::vector<std::string> all_texts = Texts(ds.train, 256);

  text::EncodingCache no_memo(context.vocab_ptr().get(),
                              options.classifier.max_len, /*capacity=*/0);
  size_t row = 0;
  report->Set("text.encode_us_per_row", MedianCallUs([&] {
                no_memo.Encode(all_texts[row++ % all_texts.size()]);
              }));

  Rng rng(5);
  report->Set("augment.apply_us_per_call", MedianCallUs([&] {
                const std::string& t = all_texts[row++ % all_texts.size()];
                if (rotom_meta) {
                  context.RandomSimpleAugment(t, rng);
                } else {
                  context.MixDaAugment(t, rng);
                }
              }));

  models::TransformerClassifier model(options.classifier, context.vocab_ptr(),
                                      rng);
  model.SetTraining(true);
  nn::Adam optimizer(model.Parameters(), options.lr);
  text::EncodingCache cache(context.vocab_ptr().get(),
                            options.classifier.max_len, 1 << 12);
  const text::EncodedBatch encoded = text::AssembleEncodedBatch(cache, texts);
  std::vector<double> fwd, bwd, step;
  for (int i = 0; i < 21; ++i) {
    optimizer.ZeroGrad();
    Variable loss;
    fwd.push_back(TimeSeconds([&] {
      loss = ops::CrossEntropyMean(model.ForwardLogitsEncoded(encoded, rng),
                                   labels);
    }));
    bwd.push_back(TimeSeconds([&] { loss.Backward(); }));
    step.push_back(TimeSeconds([&] { optimizer.Step(); }));
  }
  report->Set("models.forward_ms", Median(fwd) * 1e3);
  report->Set("models.backward_ms", Median(bwd) * 1e3);
  report->Set("nn.optim_step_ms", Median(step) * 1e3);

  std::vector<double> sweeps;
  for (int i = 0; i < 3; ++i) {
    sweeps.push_back(TimeSeconds(
        [&] { eval::EvaluateModel(model, ds.valid, context.metric()); }));
  }
  report->Set("eval.valid_sweep_ms", Median(sweeps) * 1e3);

  if (!rotom_meta) return;
  // Rotom's meta models at the candidate-batch shape (one simple-op and one
  // InvDA candidate per example).
  std::vector<std::string> candidates;
  std::vector<int64_t> candidate_labels;
  for (size_t i = 0; i < texts.size(); ++i) {
    candidates.push_back(context.RandomSimpleAugment(texts[i], rng));
    candidates.push_back(context.InvDaSample(texts[i], rng));
    candidate_labels.push_back(labels[i]);
    candidate_labels.push_back(labels[i]);
  }
  std::vector<std::string> originals;
  for (size_t i = 0; i < texts.size(); ++i) {
    originals.push_back(texts[i]);
    originals.push_back(texts[i]);
  }
  model.SetTraining(false);
  const Tensor probs_orig = model.PredictProbsEncoded(
      text::AssembleEncodedBatch(cache, originals), rng);
  const text::EncodedBatch encoded_aug =
      text::AssembleEncodedBatch(cache, candidates);
  const Tensor probs_aug = model.PredictProbsEncoded(encoded_aug, rng);
  core::FilteringModel filter(ds.num_classes, rng);
  report->Set("core.filter_ms", MedianCallUs([&] {
                filter.Forward(core::FilteringModel::ComputeFeatures(
                    probs_orig, probs_aug, candidate_labels));
              }) * 1e-3);
  core::WeightingModel weighting(options.classifier, context.vocab_ptr(), rng);
  const Tensor l2 = core::WeightingModel::L2Term(probs_aug, candidate_labels);
  report->Set("core.weighting_ms", MedianCallUs([&] {
                weighting.WeightsEncoded(encoded_aug, l2, rng);
              }) * 1e-3);
  report->Set("invda.sample_us", MedianCallUs([&] {
                context.InvDaSample(all_texts[row++ % all_texts.size()], rng);
              }));
}

void ReportTraceOverhead(const Calls& untraced, const Calls& traced,
                         Report* report) {
  const double u = Max(untraced.steps_per_s);
  const double t = Max(traced.steps_per_s);
  report->Set("obs.trace_overhead_frac", t > 0.0 ? u / t - 1.0 : 0.0);
}

// ---- train_em_rotom ----

struct EmSetup {
  std::unique_ptr<eval::TaskContext> context;
  double pretrain_s = 0.0;
  double invda_s = 0.0;
};

EmSetup BuildEm(uint64_t seed) {
  EmSetup setup;
  data::EmOptions d;
  d.budget = 128;
  d.test_size = 200;
  d.unlabeled_size = 300;
  d.seed = seed;
  setup.context = std::make_unique<eval::TaskContext>(
      data::MakeEmDataset("dblp_acm", d), EmOptions());
  setup.pretrain_s = TimeSeconds([&] { setup.context->PretrainedState(); });
  setup.invda_s = TimeSeconds([&] { setup.context->EnsureInvDa(); });
  std::fprintf(stderr, "perfbench: set-up pretrain %.2f s, invda %.2f s\n",
               setup.pretrain_s, setup.invda_s);
  return setup;
}

}  // namespace

void RunTrainEmRotom(const Args& args, Report* report) {
  std::vector<double> setups;
  EmSetup setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setup = EmSetup();  // free the previous repeat before timing the next
    ReleaseFreedMemory();
    setups.push_back(TimeSeconds([&] { setup = BuildEm(args.seed); }));
  }
  eval::TaskContext& context = *setup.context;
  auto call = [&](uint64_t seed) {
    return context.Run(eval::Method::kRotom, seed);
  };
  const int calls = CallsFor(args.seconds, kEmSecondsPerCall);
  if (!args.trace) {
    ReportEndToEnd(RunCalls(calls, args.seed, call, report), setups, report);
    return;
  }
  report->Set("setup.pretrain_s", setup.pretrain_s);
  report->Set("setup.invda_s", setup.invda_s);
  rotom::obs::SetEnabled(false);
  const int half = std::max(1, calls / 2);
  const Calls untraced = RunCalls(half, args.seed, call, report);
  rotom::obs::SetEnabled(true);
  core::PipelineOptions pipeline = context.options().pipeline;
  pipeline.runlog_dir = args.work_dir + "/runlog";
  std::filesystem::create_directories(pipeline.runlog_dir);
  context.set_pipeline(pipeline);
  const ObsDelta delta;
  const Calls traced = RunCalls(half, args.seed, call, report);
  ReportTraceOverhead(untraced, traced, report);
  ReportObsShares(delta, report);
  report->Set("eval.test_score_pct", untraced.first_score);
  report->Set("core.keep_rate", MeanKeepRate(pipeline.runlog_dir));
  const double train_us =
      static_cast<double>(delta.Sum("span.rotom.train.us"));
  for (const char* phase : {"augment", "encode", "meta_forward", "forward",
                            "backward", "weighting"}) {
    const double us = static_cast<double>(
        delta.Sum(std::string("span.rotom.") + phase + ".us"));
    report->Set(std::string("core.share.") + phase,
                train_us > 0.0 ? us / train_us : 0.0);
  }
  ProbeTrainingLayers(context, /*rotom_meta=*/true, report);
  ProbeKernels(report);
}

// ---- train_textcls_stream ----

namespace {

struct TextClsSetup {
  data::DataSource source;
  std::unique_ptr<eval::TaskContext> context;
  double pretrain_s = 0.0;
};

Status WriteExamplesCsv(const std::string& path,
                        const std::vector<data::Example>& examples) {
  CsvTable table;
  table.header = {"text", "label"};
  for (const auto& e : examples)
    table.rows.push_back({e.text, "c" + std::to_string(e.label)});
  return WriteCsvFile(path, table);
}

// Writes the corpus and held-out eval split as CSV (a fresh file name per
// set-up, so the library's CSV cache cannot serve a repeat), opens the
// streaming source and pre-trains the encoder.
StatusOr<TextClsSetup> BuildTextCls(const Args& args, int repeat) {
  data::TextClsOptions d;
  d.train_size = 2000;
  d.valid_size = 0;
  d.test_size = 300;
  d.unlabeled_size = 0;
  d.seed = args.seed;
  const data::TaskDataset generated = data::MakeTextClsDataset("trec", d);
  const std::string stem =
      args.work_dir + "/trec-" + std::to_string(repeat);
  if (Status s = WriteExamplesCsv(stem + "-train.csv", generated.train);
      !s.ok())
    return s;
  if (Status s = WriteExamplesCsv(stem + "-eval.csv", generated.test);
      !s.ok())
    return s;

  data::DataSource::StreamSpec stream;
  stream.max_steps = kStreamSteps;
  stream.shuffle_capacity = 256;
  stream.seed = args.seed;
  stream.eval.path = stem + "-eval.csv";
  data::DataSource::SplitSpec split;
  split.name = "trec";
  TextClsSetup setup;
  setup.source = data::DataSource::Stream(
      {data::DataSource::FileSpec{.path = stem + "-train.csv"}}, stream,
      split);
  auto opened = data::OpenSource(setup.source);
  if (!opened.ok()) return opened.status();
  eval::ExperimentOptions options = TextClsOptions();
  options.pipeline.streaming.source = opened.value().stream;
  options.pipeline.streaming.max_steps = kStreamSteps;
  setup.context = std::make_unique<eval::TaskContext>(
      std::move(opened.value().dataset), std::move(options));
  setup.pretrain_s = TimeSeconds([&] { setup.context->PretrainedState(); });
  return setup;
}

}  // namespace

void RunTrainTextClsStream(const Args& args, Report* report) {
  std::vector<double> setups;
  TextClsSetup setup;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    setup = TextClsSetup();
    ReleaseFreedMemory();
    Status status = Status::Ok();
    setups.push_back(TimeSeconds([&] {
      auto built = BuildTextCls(args, i);
      if (built.ok()) {
        setup = std::move(built).value();
      } else {
        status = built.status();
      }
    }));
    if (!status.ok()) {
      report->MarkIncorrect("set-up failed: " + status.message());
      return;
    }
  }
  eval::TaskContext& context = *setup.context;
  core::PipelineOptions pipeline = context.options().pipeline;
  // Every training call streams from a freshly opened pipeline of the same
  // spec (the CSV itself is cached by the library after the first read).
  bool open_failed = false;
  auto call = [&](uint64_t seed) {
    auto opened = data::OpenSource(setup.source);
    if (!opened.ok()) {
      open_failed = true;
      return eval::ExperimentResult{.test_metric = NAN};
    }
    pipeline.streaming.source = opened.value().stream;
    context.set_pipeline(pipeline);
    return context.Run(eval::Method::kMixDa, seed);
  };
  const int calls = CallsFor(args.seconds, kStreamSecondsPerCall);
  if (!args.trace) {
    ReportEndToEnd(RunCalls(calls, args.seed, call, report), setups, report);
    if (open_failed) report->MarkIncorrect("re-opening the stream failed");
    return;
  }
  report->Set("setup.pretrain_s", setup.pretrain_s);
  rotom::obs::SetEnabled(false);
  const int half = std::max(1, calls / 2);
  const Calls untraced = RunCalls(half, args.seed, call, report);
  rotom::obs::SetEnabled(true);
  const ObsDelta delta;
  const Calls traced = RunCalls(half, args.seed, call, report);
  ReportTraceOverhead(untraced, traced, report);
  ReportObsShares(delta, report);
  report->Set("eval.test_score_pct", untraced.first_score);
  const double train_us =
      static_cast<double>(delta.Sum("span.finetune.train.us"));
  report->Set("stream.stall_share",
              train_us > 0.0
                  ? static_cast<double>(delta.Sum("stream.stall_us")) /
                        train_us
                  : 0.0);

  // A replica of the training pipeline, built from the same spec and seed.
  auto replica = data::OpenSource(setup.source);
  if (replica.ok()) {
    stream::ExampleStream& s = *replica.value().stream;
    report->Set("stream.next_us_per_example",
                MedianCallUs([&] { (void)s.Next(); }));
  } else {
    report->MarkIncorrect("replica stream: " + replica.status().message());
  }
  ProbeTrainingLayers(context, /*rotom_meta=*/false, report);
  ProbeKernels(report);
}

}  // namespace perfbench
