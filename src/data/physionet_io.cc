#include "data/physionet_io.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "util/byte_codec.h"

namespace elda {
namespace data {
namespace {

using util::Fail;

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream stream(line);
  std::string cell;
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  return cells;
}

// "HH:MM" -> hour index; returns -1 on malformed input.
int64_t ParseHour(const std::string& time) {
  const size_t colon = time.find(':');
  if (colon == std::string::npos || colon == 0) return -1;
  char* end = nullptr;
  const long hour = std::strtol(time.c_str(), &end, 10);
  if (end != time.c_str() + colon || hour < 0) return -1;
  return hour;
}

}  // namespace

bool ParsePhysioNetRecord(std::istream& in,
                          const std::vector<std::string>& feature_names,
                          const PhysioNetParseOptions& options,
                          EmrSample* sample, ParseStats* stats,
                          std::string* error) {
  ELDA_CHECK(sample != nullptr);
  ELDA_CHECK_GT(options.max_steps, 0);
  std::map<std::string, int64_t> index;
  for (size_t c = 0; c < feature_names.size(); ++c) {
    index[feature_names[c]] = static_cast<int64_t>(c);
  }

  // The ragged grid is sized by the record's true horizon, which is only
  // known at the end, so measurements buffer until then.
  struct Row {
    int64_t hour;
    int64_t feature;
    float value;
  };
  std::vector<Row> rows;
  ParseStats parsed;

  std::string line;
  if (!std::getline(in, line)) return Fail(error, "empty record");
  // Header is "Time,Parameter,Value".
  if (line.rfind("Time", 0) != 0) {
    return Fail(error, "missing Time,Parameter,Value header");
  }
  int64_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != 3) {
      return Fail(error, "line " + std::to_string(line_number) +
                             ": expected 3 cells");
    }
    const int64_t hour = ParseHour(cells[0]);
    if (hour < 0) {
      return Fail(error, "line " + std::to_string(line_number) +
                             ": bad time '" + cells[0] + "'");
    }
    auto it = index.find(cells[1]);
    if (it == index.end()) continue;  // static descriptor or unused param
    char* end = nullptr;
    const float value = std::strtof(cells[2].c_str(), &end);
    if (end == cells[2].c_str()) {
      return Fail(error, "line " + std::to_string(line_number) +
                             ": bad value '" + cells[2] + "'");
    }
    if (value == -1.0f) continue;  // PhysioNet's "not measured" sentinel
    parsed.max_hour_seen = std::max(parsed.max_hour_seen, hour);
    if (hour >= options.max_steps) {
      // Beyond the modelling window: dropped, but counted rather than
      // silently discarded.
      ++parsed.truncated_measurements;
      continue;
    }
    rows.push_back({hour, it->second, value});
  }

  const int64_t steps =
      options.ragged
          ? std::max<int64_t>(
                1, std::min(parsed.max_hour_seen + 1, options.max_steps))
          : options.max_steps;
  *sample = EmrSample(steps, static_cast<int64_t>(feature_names.size()));
  for (const Row& row : rows) {
    sample->value(row.hour, row.feature) = row.value;  // last in hour wins
    sample->set_observed(row.hour, row.feature, true);
  }
  if (stats != nullptr) *stats = parsed;
  return true;
}

bool ParsePhysioNetRecord(std::istream& in,
                          const std::vector<std::string>& feature_names,
                          int64_t num_steps, EmrSample* sample,
                          std::string* error) {
  PhysioNetParseOptions options;
  options.max_steps = num_steps;
  return ParsePhysioNetRecord(in, feature_names, options, sample,
                              /*stats=*/nullptr, error);
}

bool ParsePhysioNetOutcomes(std::istream& in,
                            std::vector<PhysioNetOutcome>* outcomes,
                            std::string* error) {
  ELDA_CHECK(outcomes != nullptr);
  outcomes->clear();
  std::string line;
  if (!std::getline(in, line) || line.rfind("RecordID", 0) != 0) {
    return Fail(error, "missing outcomes header");
  }
  int64_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() < 6) {
      return Fail(error, "outcomes line " + std::to_string(line_number) +
                             ": expected 6 cells");
    }
    PhysioNetOutcome outcome;
    outcome.record_id = std::strtoll(cells[0].c_str(), nullptr, 10);
    outcome.length_of_stay_days = std::strtof(cells[3].c_str(), nullptr);
    outcome.in_hospital_death = std::strtof(cells[5].c_str(), nullptr);
    outcomes->push_back(outcome);
  }
  return true;
}

bool ExportCohortCsv(const EmrDataset& cohort, const std::string& path,
                     std::string* error) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Fail(error, "cannot open " + path + " for writing");
  for (int64_t i = 0; i < cohort.size(); ++i) {
    const EmrSample& s = cohort.sample(i);
    out << "#labels," << i << "," << s.mortality_label << ","
        << s.los_gt7_label << "," << s.condition << "," << s.length << "\n";
  }
  out << "patient,hour,feature,value\n";
  const auto& names = cohort.feature_names();
  for (int64_t i = 0; i < cohort.size(); ++i) {
    const EmrSample& s = cohort.sample(i);
    for (int64_t t = 0; t < s.num_steps; ++t) {
      for (int64_t c = 0; c < s.num_features; ++c) {
        if (!s.is_observed(t, c)) continue;
        out << i << "," << t << "," << names[c] << "," << s.value(t, c)
            << "\n";
      }
    }
  }
  out.flush();
  if (!out) return Fail(error, "write failure on " + path);
  return true;
}

bool ImportCohortCsv(const std::string& path,
                     const std::vector<std::string>& feature_names,
                     int64_t num_steps, EmrDataset* cohort,
                     std::string* error) {
  ELDA_CHECK(cohort != nullptr);
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot open " + path);
  std::map<std::string, int64_t> index;
  for (size_t c = 0; c < feature_names.size(); ++c) {
    index[feature_names[c]] = static_cast<int64_t>(c);
  }
  *cohort = EmrDataset(feature_names, num_steps);

  struct Labels {
    float mortality = 0.0f;
    float los = 0.0f;
    int64_t condition = -1;
    int64_t length = -1;  // -1: pre-length-column file, default to the grid
  };
  std::map<int64_t, Labels> labels;
  std::map<int64_t, EmrSample> samples;
  std::string line;
  bool saw_header = false;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line.rfind("#labels,", 0) == 0) {
      const auto cells = SplitCsvLine(line.substr(8));
      if (cells.size() != 4 && cells.size() != 5) {
        return Fail(error, "bad #labels line");
      }
      const int64_t patient = std::strtoll(cells[0].c_str(), nullptr, 10);
      Labels parsed;
      parsed.mortality = std::strtof(cells[1].c_str(), nullptr);
      parsed.los = std::strtof(cells[2].c_str(), nullptr);
      parsed.condition = std::strtoll(cells[3].c_str(), nullptr, 10);
      if (cells.size() == 5) {
        parsed.length = std::strtoll(cells[4].c_str(), nullptr, 10);
        if (parsed.length < 0 || parsed.length > num_steps) {
          return Fail(error, "length out of range on a #labels line");
        }
      }
      labels[patient] = parsed;
      continue;
    }
    if (line.rfind("patient,", 0) == 0) {
      saw_header = true;
      continue;
    }
    if (!saw_header) return Fail(error, "missing column header");
    const auto cells = SplitCsvLine(line);
    if (cells.size() != 4) {
      return Fail(error, "line " + std::to_string(line_number) +
                             ": expected 4 cells");
    }
    const int64_t patient = std::strtoll(cells[0].c_str(), nullptr, 10);
    const int64_t hour = std::strtoll(cells[1].c_str(), nullptr, 10);
    auto it = index.find(cells[2]);
    if (it == index.end()) {
      return Fail(error, "unknown feature '" + cells[2] + "'");
    }
    if (hour < 0 || hour >= num_steps) {
      return Fail(error, "hour out of range on line " +
                             std::to_string(line_number));
    }
    auto [sample_it, inserted] = samples.try_emplace(
        patient, num_steps, static_cast<int64_t>(feature_names.size()));
    sample_it->second.value(hour, it->second) =
        std::strtof(cells[3].c_str(), nullptr);
    sample_it->second.set_observed(hour, it->second, true);
  }
  for (auto& [patient, sample] : samples) {
    auto label_it = labels.find(patient);
    if (label_it != labels.end()) {
      sample.mortality_label = label_it->second.mortality;
      sample.los_gt7_label = label_it->second.los;
      sample.condition = label_it->second.condition;
      if (label_it->second.length >= 0) {
        sample.length = label_it->second.length;
      }
    }
    sample.patient_id = patient;
    cohort->Add(std::move(sample));
  }
  return true;
}

}  // namespace data
}  // namespace elda
