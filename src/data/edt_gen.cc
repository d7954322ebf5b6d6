#include "data/edt_gen.h"

#include <functional>
#include <memory>

#include "data/lexicons.h"
#include "util/check.h"
#include "util/string_util.h"

namespace rotom {
namespace data {

namespace {

using text::Record;

const std::string& Pick(const std::vector<std::string>& pool, Rng& rng) {
  return pool[rng.UniformInt(static_cast<int64_t>(pool.size()))];
}

std::string RandomDigits(int n, Rng& rng) {
  std::string out;
  for (int i = 0; i < n; ++i)
    out += static_cast<char>('0' + rng.UniformInt(10));
  return out;
}

// A finite pool of values: real dirty tables (hospital, tax, ...) have
// massive value redundancy — functional dependencies and shared domains make
// clean values repeat, which is precisely what profiling-based detectors
// (Raha) and token-level models key on. One-off corruptions then stand out.
std::vector<std::string> MakePool(int64_t size,
                                  const std::function<std::string(Rng&)>& gen,
                                  Rng& rng) {
  std::vector<std::string> pool;
  pool.reserve(size);
  for (int64_t i = 0; i < size; ++i) pool.push_back(gen(rng));
  return pool;
}

// Systematic 'x' corruption (the real hospital benchmark's error pattern).
std::string XTypo(const std::string& value, Rng& rng) {
  if (value.empty()) return "x";
  std::string out = value;
  const int64_t i = rng.UniformInt(static_cast<int64_t>(out.size()));
  out[i] = 'x';
  if (out.size() > 4 && rng.Bernoulli(0.5)) {
    const int64_t j = rng.UniformInt(static_cast<int64_t>(out.size()));
    out[j] = 'x';
  }
  return out;
}

std::string CharTypo(const std::string& value, Rng& rng) {
  if (value.size() < 2) return value + "q";
  std::string out = value;
  const int64_t i = rng.UniformInt(static_cast<int64_t>(out.size()) - 1);
  switch (rng.UniformInt(3)) {
    case 0: out.erase(i, 1); break;
    case 1: std::swap(out[i], out[i + 1]); break;
    default: out[i] = static_cast<char>('a' + rng.UniformInt(26)); break;
  }
  return out;
}

// Per-dataset table schema: row generator plus an error injector that takes
// (attr, clean value) and returns a corrupted value.
struct EdtProfile {
  std::function<Record(Rng&)> make_row;
  std::function<std::string(const std::string& attr, const std::string& value,
                            Rng& rng)>
      corrupt;
  double error_rate = 0.2;
};

EdtProfile BeersProfile(Rng& rng) {
  struct Pools {
    std::vector<std::string> names, breweries, abvs, ibus;
  };
  auto pools = std::make_shared<Pools>();
  pools->names = MakePool(60, [](Rng& r) {
    return Pick(BreweryWords(), r) + " " + Pick(BeerStyles(), r);
  }, rng);
  pools->breweries = MakePool(25, [](Rng& r) {
    return Pick(BreweryWords(), r) + " brewing";
  }, rng);
  pools->abvs = MakePool(20, [](Rng& r) {
    char abv[48];  // room for two full-width long longs
    std::snprintf(abv, sizeof(abv), "%lld.%lld",
                  static_cast<long long>(4 + r.UniformInt(6)),
                  static_cast<long long>(r.UniformInt(10)));
    return std::string(abv);
  }, rng);
  pools->ibus = MakePool(25, [](Rng& r) {
    return std::to_string(10 + r.UniformInt(90));
  }, rng);

  EdtProfile p;
  p.make_row = [pools](Rng& r) {
    Record row;
    row.fields.emplace_back("beer name", Pick(pools->names, r));
    row.fields.emplace_back("brewery", Pick(pools->breweries, r));
    row.fields.emplace_back("abv", Pick(pools->abvs, r));
    row.fields.emplace_back("ibu", Pick(pools->ibus, r));
    row.fields.emplace_back("city", Pick(Cities(), r));
    row.fields.emplace_back("state", Pick(States(), r));
    return row;
  };
  p.corrupt = [](const std::string& attr, const std::string& value, Rng& r) {
    if (attr == "abv") {
      // Unit/scale errors: "5.2" -> "52.0" or "0.052".
      return r.Bernoulli(0.5) ? value.substr(0, 1) + value.substr(2) + ".0"
                              : "0.0" + value.substr(0, 1) + value.substr(2);
    }
    if (attr == "ibu") return std::string(r.Bernoulli(0.5) ? "n/a" : "-1");
    if (attr == "state") return std::string("unknown");
    return CharTypo(value, r);
  };
  p.error_rate = 0.16;
  return p;
}

EdtProfile HospitalProfile(Rng& rng) {
  struct Pools {
    std::vector<std::string> names, addresses, zips, phones;
  };
  auto pools = std::make_shared<Pools>();
  pools->names = MakePool(30, [](Rng& r) {
    return Pick(Cities(), r) + " general hospital";
  }, rng);
  pools->addresses = MakePool(40, [](Rng& r) {
    return RandomDigits(3, r) + " " + Pick(StreetNames(), r);
  }, rng);
  pools->zips = MakePool(30, [](Rng& r) { return RandomDigits(5, r); }, rng);
  pools->phones = MakePool(40, [](Rng& r) {
    return RandomDigits(3, r) + "-" + RandomDigits(3, r) + "-" +
           RandomDigits(4, r);
  }, rng);

  EdtProfile p;
  p.make_row = [pools](Rng& r) {
    Record row;
    row.fields.emplace_back("name", Pick(pools->names, r));
    row.fields.emplace_back("address", Pick(pools->addresses, r));
    row.fields.emplace_back("city", Pick(Cities(), r));
    row.fields.emplace_back("state", Pick(States(), r));
    row.fields.emplace_back("zip", Pick(pools->zips, r));
    row.fields.emplace_back("phone", Pick(pools->phones, r));
    return row;
  };
  // The hospital benchmark's errors are systematic single-character 'x'
  // substitutions — nearly impossible to characterize from 50 raw labels but
  // trivial once augmentation/SSL amplify the signal, which drives the
  // paper's 54 -> 100 F1 jump on this dataset.
  p.corrupt = [](const std::string& attr, const std::string& value, Rng& r) {
    (void)attr;
    return XTypo(value, r);
  };
  p.error_rate = 0.22;
  return p;
}

EdtProfile MoviesProfile(Rng& rng) {
  struct Pools {
    std::vector<std::string> names, directors, durations, years;
  };
  auto pools = std::make_shared<Pools>();
  pools->names = MakePool(80, [](Rng& r) {
    return "the " + Pick(MovieTitleWords(), r) + " " +
           Pick(MovieTitleWords(), r);
  }, rng);
  pools->directors = MakePool(40, [](Rng& r) {
    return Pick(FirstNames(), r) + " " + Pick(LastNames(), r);
  }, rng);
  pools->durations = MakePool(30, [](Rng& r) {
    return std::to_string(80 + r.UniformInt(100)) + " min";
  }, rng);
  pools->years = MakePool(40, [](Rng& r) {
    return std::to_string(1960 + r.UniformInt(60));
  }, rng);

  EdtProfile p;
  p.make_row = [pools](Rng& r) {
    Record row;
    row.fields.emplace_back("name", Pick(pools->names, r));
    row.fields.emplace_back("year", Pick(pools->years, r));
    row.fields.emplace_back("director", Pick(pools->directors, r));
    row.fields.emplace_back("duration", Pick(pools->durations, r));
    row.fields.emplace_back("genre", Pick(MovieTitleWords(), r));
    return row;
  };
  // Subtle, value-plausible errors: the corrupted values are built from
  // common tokens, so they are hard to catch from the cell alone — movies is
  // the hardest EDT dataset in the paper's Table 9.
  p.corrupt = [pools](const std::string& attr, const std::string& value,
                      Rng& r) {
    if (attr == "year") return std::to_string(1800 + r.UniformInt(60));
    if (attr == "duration") return std::to_string(1 + r.UniformInt(9)) + " min";
    if (attr == "name") {
      auto tokens = SplitWhitespace(value);
      if (tokens.size() > 1) tokens.pop_back();
      return Join(tokens, " ") + " " + Pick(LastNames(), r);
    }
    if (attr == "director") return Pick(MovieTitleWords(), r) + " " +
                                   Pick(LastNames(), r);
    return CharTypo(value, r);
  };
  p.error_rate = 0.2;
  return p;
}

EdtProfile RayyanProfile(Rng& rng) {
  struct Pools {
    std::vector<std::string> titles, journals, years, pages;
  };
  auto pools = std::make_shared<Pools>();
  pools->titles = MakePool(80, [](Rng& r) {
    return Pick(PaperTitleWords(), r) + " " + Pick(PaperTitleWords(), r) +
           " in " + Pick(JournalWords(), r);
  }, rng);
  pools->journals = MakePool(25, [](Rng& r) {
    return "the " + Pick(JournalWords(), r) + " of " + Pick(JournalWords(), r);
  }, rng);
  pools->years = MakePool(25, [](Rng& r) {
    return std::to_string(1990 + r.UniformInt(30));
  }, rng);
  pools->pages = MakePool(50, [](Rng& r) {
    const int64_t start = 1 + r.UniformInt(400);
    return std::to_string(start) + "-" +
           std::to_string(start + 5 + r.UniformInt(20));
  }, rng);

  EdtProfile p;
  p.make_row = [pools](Rng& r) {
    Record row;
    row.fields.emplace_back("article title", Pick(pools->titles, r));
    row.fields.emplace_back("journal", Pick(pools->journals, r));
    row.fields.emplace_back("year", Pick(pools->years, r));
    row.fields.emplace_back("pages", Pick(pools->pages, r));
    return row;
  };
  p.corrupt = [](const std::string& attr, const std::string& value, Rng& r) {
    if (attr == "year") return std::string(r.Bernoulli(0.5) ? "null" : "0");
    if (attr == "pages") return value.substr(0, value.find('-')) + "--";
    if (attr == "journal") return value.substr(0, value.size() / 2);
    return CharTypo(value, r);
  };
  p.error_rate = 0.2;
  return p;
}

EdtProfile TaxProfile(Rng& rng) {
  struct Pools {
    std::vector<std::string> zips, salaries, rates;
  };
  auto pools = std::make_shared<Pools>();
  pools->zips = MakePool(30, [](Rng& r) { return RandomDigits(5, r); }, rng);
  pools->salaries = MakePool(40, [](Rng& r) {
    return std::to_string((20 + r.UniformInt(180)) * 1000);
  }, rng);
  pools->rates = MakePool(20, [](Rng& r) {
    char rate[32];  // room for a full-width long long
    std::snprintf(rate, sizeof(rate), "0.%02lld",
                  static_cast<long long>(10 + r.UniformInt(30)));
    return std::string(rate);
  }, rng);

  EdtProfile p;
  p.make_row = [pools](Rng& r) {
    Record row;
    row.fields.emplace_back("f name", Pick(FirstNames(), r));
    row.fields.emplace_back("l name", Pick(LastNames(), r));
    row.fields.emplace_back("zip", Pick(pools->zips, r));
    row.fields.emplace_back("salary", Pick(pools->salaries, r));
    row.fields.emplace_back("rate", Pick(pools->rates, r));
    return row;
  };
  p.corrupt = [](const std::string& attr, const std::string& value, Rng& r) {
    if (attr == "rate") {
      // Rates above 1.0 violate the domain constraint.
      char bad[48];  // room for two full-width long longs
      std::snprintf(bad, sizeof(bad), "%lld.%02lld",
                    static_cast<long long>(1 + r.UniformInt(8)),
                    static_cast<long long>(r.UniformInt(100)));
      return std::string(bad);
    }
    if (attr == "zip") return RandomDigits(r.Bernoulli(0.5) ? 3 : 8, r);
    if (attr == "salary") return value + RandomDigits(3, r);
    if (attr == "f name" || attr == "l name") return XTypo(value, r);
    return CharTypo(value, r);
  };
  p.error_rate = 0.2;
  return p;
}

EdtProfile ProfileFor(const std::string& name, Rng& rng) {
  if (name == "beers") return BeersProfile(rng);
  if (name == "hospital") return HospitalProfile(rng);
  if (name == "movies") return MoviesProfile(rng);
  if (name == "rayyan") return RayyanProfile(rng);
  if (name == "tax") return TaxProfile(rng);
  ROTOM_CHECK_MSG(false, ("unknown EDT dataset: " + name).c_str());
  return {};
}

}  // namespace

TaskDataset MakeEdtDataset(const std::string& name, const EdtOptions& options) {
  Rng rng(options.seed * 15485863 + std::hash<std::string>{}(name));
  const EdtProfile profile = ProfileFor(name, rng);

  // Generate the table and corrupt cells in place, remembering labels.
  struct Cell {
    std::string text;
    int64_t label;
  };
  std::vector<std::vector<Cell>> rows;
  rows.reserve(options.table_rows);
  for (int64_t i = 0; i < options.table_rows; ++i) {
    Record row = profile.make_row(rng);
    std::vector<int64_t> labels;
    for (auto& [attr, value] : row.fields) {
      const bool is_error = rng.Bernoulli(profile.error_rate);
      if (is_error) value = profile.corrupt(attr, value, rng);
      labels.push_back(is_error ? 1 : 0);
    }
    std::vector<Cell> cells;
    for (size_t c = 0; c < row.fields.size(); ++c) {
      const std::string input =
          options.context_dependent
              ? text::SerializeRowContext(row, c)
              : text::SerializeCell(row.fields[c].first, row.fields[c].second);
      cells.push_back({input, labels[c]});
    }
    rows.push_back(std::move(cells));
  }

  TaskDataset ds;
  ds.name = name;
  ds.num_classes = 2;
  ds.is_record_task = true;

  // Hold out test rows, keep the natural error rate there.
  std::vector<int64_t> row_ids(options.table_rows);
  for (int64_t i = 0; i < options.table_rows; ++i) row_ids[i] = i;
  rng.Shuffle(row_ids);
  for (int64_t i = 0; i < options.test_rows; ++i) {
    for (const auto& cell : rows[row_ids[i]])
      ds.test.push_back({cell.text, cell.label});
  }

  std::vector<Example> train_pool;
  for (int64_t i = options.test_rows;
       i < static_cast<int64_t>(row_ids.size()); ++i) {
    for (const auto& cell : rows[row_ids[i]]) {
      train_pool.push_back({cell.text, cell.label});
    }
  }
  ds.train = SampleBalanced(train_pool, options.budget, 2, rng);
  ds.valid = ds.train;  // paper: no labeling budget spent on validation
  for (const auto& e : train_pool) {
    if (ds.unlabeled.size() >= 2000) break;
    ds.unlabeled.push_back(e.text);
  }
  return ds;
}

const std::vector<std::string>& EdtDatasetNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "beers", "hospital", "movies", "rayyan", "tax"};
  return *names;
}

}  // namespace data
}  // namespace rotom
