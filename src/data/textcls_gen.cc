#include "data/textcls_gen.h"

#include <functional>

#include "data/lexicons.h"
#include "util/check.h"
#include "util/string_util.h"

namespace rotom {
namespace data {

namespace {

using Strings = std::vector<std::string>;

const std::string& Pick(const Strings& pool, Rng& rng) {
  return pool[rng.UniformInt(static_cast<int64_t>(pool.size()))];
}

// ---------------------------------------------------------------------------
// Sentiment reviews (AM-2/AM-5/SST-2/SST-5/IMDB).
//
// A review's class determines the mix of positive and negative opinion
// clauses. Five-way ratings are ordinal with overlapping neighbours, which
// makes the 5-class variants much harder than the binary ones — matching the
// accuracy gap in the paper (e.g. AM-2 ~70-82% vs AM-5 ~26-44%). Negated
// opinions ("not great") appear with small probability so single-token DA
// (deleting "not") can corrupt labels, mirroring Example 1.1.
// ---------------------------------------------------------------------------

std::string OpinionClause(bool positive, Rng& rng) {
  const Strings& bank = positive ? PositiveWords() : NegativeWords();
  std::string clause = "the " + Pick(ReviewNouns(), rng);
  clause += rng.Bernoulli(0.5) ? " was " : " is ";
  if (rng.Bernoulli(0.12)) {
    // Negated opposite-polarity word; same label, fragile under token_del.
    const Strings& opposite = positive ? NegativeWords() : PositiveWords();
    clause += "not " + Pick(opposite, rng);
  } else {
    if (rng.Bernoulli(0.4)) clause += Pick(IntensifierWords(), rng) + " ";
    clause += Pick(bank, rng);
  }
  return clause;
}

std::string FillerClause(Rng& rng) {
  std::string out = Pick(NeutralFillerWords(), rng);
  out += " " + Pick(NeutralFillerWords(), rng);
  out += " " + Pick(ReviewNouns(), rng);
  return out;
}

// stars in [0, num_classes); num_clauses scales with `length`.
std::string MakeReview(int64_t stars, int64_t num_classes, int64_t length,
                       Rng& rng) {
  // Probability a clause is positive, by rating. For 2-way: .15/.85.
  // For 5-way: heavily overlapping neighbours — adjacent star ratings are
  // genuinely hard to tell apart from 2-3 opinion clauses, which drives the
  // near-chance 5-way accuracies the paper reports (AM-5 ~26-44%).
  double p_pos;
  if (num_classes == 2) {
    p_pos = stars == 0 ? 0.15 : 0.85;
  } else {
    static const double kFive[5] = {0.15, 0.35, 0.50, 0.65, 0.85};
    p_pos = kFive[stars];
  }
  std::vector<std::string> clauses;
  for (int64_t i = 0; i < length; ++i) {
    if (rng.Bernoulli(num_classes == 2 ? 0.3 : 0.45)) {
      clauses.push_back(FillerClause(rng));
    } else {
      clauses.push_back(OpinionClause(rng.Bernoulli(p_pos), rng));
    }
  }
  std::string out = Join(clauses, " , ");
  out += " .";
  return out;
}

// ---------------------------------------------------------------------------
// AG-style 4-way news topic.
// ---------------------------------------------------------------------------

const Strings& NewsBank(int64_t cls) {
  switch (cls) {
    case 0: return NewsWorldWords();
    case 1: return NewsSportsWords();
    case 2: return NewsBusinessWords();
    default: return NewsTechWords();
  }
}

std::string MakeNewsHeadline(int64_t cls, Rng& rng) {
  // Topic vocabularies bleed into each other: any word may come from a
  // random other topic with prob 0.18 (business<->tech confuse even more),
  // capping attainable accuracy near the paper's ~72-79%.
  auto sample_word = [&](Rng& r) -> std::string {
    if ((cls == 2 || cls == 3) && r.Bernoulli(0.15))
      return Pick(NewsBank(cls == 2 ? 3 : 2), r);
    if (r.Bernoulli(0.18)) return Pick(NewsBank(r.UniformInt(4)), r);
    return Pick(NewsBank(cls), r);
  };
  std::string out = Pick(LastNames(), rng);
  out += ' ';
  out += sample_word(rng);
  out += rng.Bernoulli(0.5) ? " rises after " : " falls amid ";
  out += sample_word(rng);
  out += " in " + Pick(Cities(), rng);
  if (rng.Bernoulli(0.5)) out += " , " + sample_word(rng) + " says report";
  return out;
}

// ---------------------------------------------------------------------------
// TREC-style 6-way question intent: ABBR, ENTY, DESC, HUM, LOC, NUM.
// Wh-words overlap across classes so intent depends on more than one token.
// ---------------------------------------------------------------------------

std::string MakeQuestion(int64_t cls, Rng& rng) {
  const Strings* bank = nullptr;
  switch (cls) {
    case 0: bank = &QuestionAbbrevPhrases(); break;
    case 1: bank = &QuestionEntityPhrases(); break;
    case 2: bank = &QuestionDescriptionPhrases(); break;
    case 3: bank = &QuestionHumanPhrases(); break;
    case 4: bank = &QuestionLocationPhrases(); break;
    default: bank = &QuestionNumericPhrases(); break;
  }
  // Surface diversity drives the low-resource hardness: generic lead-ins
  // push the class-indicative phrase away from the sequence start, and with
  // ~17 examples/class at budget 100 most surface forms are unseen.
  std::string out;
  if (rng.Bernoulli(0.45)) {
    static const char* kLeadIns[] = {
        "can you tell me", "i would like to know", "do you know",
        "please tell me", "anyone know"};
    out = std::string(kLeadIns[rng.UniformInt(5)]) + " ";
  }
  out += Pick(*bank, rng);
  out += " the " + Pick(MovieTitleWords(), rng);
  if (rng.Bernoulli(0.6)) out += " " + Pick(MovieTitleWords(), rng);
  if (rng.Bernoulli(0.3)) out += " of " + Pick(LastNames(), rng);
  if (cls == 0 && rng.Bernoulli(0.7)) out += " stand for";
  if (cls == 4 && rng.Bernoulli(0.4)) out += " located";
  out += " ?";
  return out;
}

// ---------------------------------------------------------------------------
// ATIS-style 24-way and SNIPS-style 7-way intents.
// ---------------------------------------------------------------------------

std::string MakeAtisQuery(int64_t intent, Rng& rng) {
  std::string out = Pick(AtisIntentPhrases(static_cast<int>(intent)), rng);
  out += " " + Pick(AirportCities(), rng) + " to " + Pick(AirportCities(), rng);
  if (rng.Bernoulli(0.5)) {
    static const char* kDays[] = {"monday", "tuesday",  "wednesday", "thursday",
                                  "friday", "saturday", "sunday"};
    out += std::string(" on ") + kDays[rng.UniformInt(7)];
  }
  if (rng.Bernoulli(0.3))
    out += " with " + Pick(AirlineNames(), rng);
  return out;
}

std::string MakeSnipsQuery(int64_t intent, Rng& rng) {
  std::string out = Pick(SnipsIntentPhrases(static_cast<int>(intent)), rng);
  out += " " + Pick(MovieTitleWords(), rng);
  if (rng.Bernoulli(0.5)) out += " " + Pick(MovieTitleWords(), rng);
  if (intent == 1 || intent == 2)  // restaurant / weather mention a place
    out += " in " + Pick(Cities(), rng);
  if (intent == 4) out += " five stars";
  return out;
}

struct GeneratorSpec {
  int64_t num_classes;
  std::function<std::string(int64_t cls, Rng& rng)> make;
};

GeneratorSpec SpecFor(const std::string& name) {
  if (name == "ag") {
    return {4, [](int64_t c, Rng& r) { return MakeNewsHeadline(c, r); }};
  }
  if (name == "am2") {
    return {2, [](int64_t c, Rng& r) { return MakeReview(c, 2, 3 + r.UniformInt(3), r); }};
  }
  if (name == "am5") {
    return {5, [](int64_t c, Rng& r) { return MakeReview(c, 5, 3 + r.UniformInt(3), r); }};
  }
  if (name == "sst2") {
    return {2, [](int64_t c, Rng& r) { return MakeReview(c, 2, 2 + r.UniformInt(2), r); }};
  }
  if (name == "sst5") {
    return {5, [](int64_t c, Rng& r) { return MakeReview(c, 5, 2 + r.UniformInt(2), r); }};
  }
  if (name == "trec") {
    return {6, [](int64_t c, Rng& r) { return MakeQuestion(c, r); }};
  }
  if (name == "atis") {
    return {static_cast<int64_t>(AtisNumIntents()),
            [](int64_t c, Rng& r) { return MakeAtisQuery(c, r); }};
  }
  if (name == "snips") {
    return {static_cast<int64_t>(SnipsNumIntents()),
            [](int64_t c, Rng& r) { return MakeSnipsQuery(c, r); }};
  }
  if (name == "imdb") {
    // Long binary reviews; truncation at the classifier's max length hurts
    // everyone, matching the paper's footnote about IMDB's low accuracy.
    return {2, [](int64_t c, Rng& r) { return MakeReview(c, 2, 10 + r.UniformInt(6), r); }};
  }
  ROTOM_CHECK_MSG(false, ("unknown TextCLS dataset: " + name).c_str());
  return {0, nullptr};
}

std::vector<Example> Generate(const GeneratorSpec& spec, int64_t count,
                              Rng& rng) {
  std::vector<Example> out;
  out.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    const int64_t cls = rng.UniformInt(spec.num_classes);
    out.push_back({spec.make(cls, rng), cls});
  }
  return out;
}

}  // namespace

TaskDataset MakeTextClsDataset(const std::string& name,
                               const TextClsOptions& options) {
  const GeneratorSpec spec = SpecFor(name);
  Rng rng(options.seed * 7919 + std::hash<std::string>{}(name));

  TaskDataset ds;
  ds.name = name;
  ds.num_classes = spec.num_classes;
  ds.train = Generate(spec, options.train_size, rng);
  const int64_t valid_size =
      options.valid_size < 0 ? options.train_size : options.valid_size;
  ds.valid = Generate(spec, valid_size, rng);
  ds.test = Generate(spec, options.test_size, rng);
  for (const auto& e : Generate(spec, options.unlabeled_size, rng))
    ds.unlabeled.push_back(e.text);
  return ds;
}

const std::vector<std::string>& TextClsDatasetNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "ag", "am2", "am5", "atis", "snips", "sst2", "sst5", "trec"};
  return *names;
}

int64_t TextClsNumClasses(const std::string& name) {
  return SpecFor(name).num_classes;
}

}  // namespace data
}  // namespace rotom
