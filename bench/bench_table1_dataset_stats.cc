// Regenerates Table I: statistics of the PhysioNet2012 and MIMIC-III
// datasets, reproduced by the synthetic cohorts SynthPhysioNet2012 and
// SynthMimicIii (see DESIGN.md "Substitutions").
//
// Default scale generates 10% of each cohort; --full generates all 12,000 /
// 21,139 admissions (a few seconds of CPU).

#include <cstdio>

#include "bench/bench_common.h"
#include "data/emr.h"

namespace elda {
namespace {

struct PaperStats {
  double admissions;
  double survivors, non_survivors;
  double los_le7, los_gt7;
  double records_per_patient;
  double missing_rate;
};

void Report(const std::string& name, const data::EmrDataset& cohort,
            const PaperStats& paper, double scale_factor) {
  TablePrinter table({"statistic", "paper", "synthetic (scaled x" +
                                       TablePrinter::Num(scale_factor, 2) +
                                       ")"});
  const double n = cohort.size();
  const double mortality = cohort.CountMortality();
  const double los_gt7 = cohort.CountLosGt7();
  table.AddRow({"# of admissions", TablePrinter::Num(paper.admissions, 0),
                TablePrinter::Num(n, 0)});
  table.AddRow({"survivor : non-survivor",
                TablePrinter::Num(paper.survivors, 0) + " : " +
                    TablePrinter::Num(paper.non_survivors, 0),
                TablePrinter::Num(n - mortality, 0) + " : " +
                    TablePrinter::Num(mortality, 0)});
  table.AddRow({"mortality rate",
                TablePrinter::Num(paper.non_survivors / paper.admissions, 4),
                TablePrinter::Num(mortality / n, 4)});
  table.AddRow({"LOS<=7 : LOS>7",
                TablePrinter::Num(paper.los_le7, 0) + " : " +
                    TablePrinter::Num(paper.los_gt7, 0),
                TablePrinter::Num(n - los_gt7, 0) + " : " +
                    TablePrinter::Num(los_gt7, 0)});
  table.AddRow(
      {"LOS>7 rate",
       TablePrinter::Num(paper.los_gt7 / (paper.los_le7 + paper.los_gt7), 4),
       TablePrinter::Num(los_gt7 / n, 4)});
  table.AddRow({"avg. # records / patient",
                TablePrinter::Num(paper.records_per_patient, 2),
                TablePrinter::Num(cohort.AvgRecordsPerPatient(), 2)});
  table.AddRow({"# of medical features", "37",
                TablePrinter::Num(cohort.num_features(), 0)});
  table.AddRow({"missing rate", TablePrinter::Num(paper.missing_rate, 4),
                TablePrinter::Num(cohort.MissingRate(), 4)});
  // Stay-length distribution. Fixed-grid cohorts collapse to a single
  // value (the paper's 48 h window); variable-length cohorts show the
  // condition-dependent spread the ragged substrate carries end-to-end.
  const data::LengthStats lengths = cohort.ComputeStayLengthStats();
  table.AddRow({"stay length h (p50 / p95 / max)", "48 / 48 / 48",
                TablePrinter::Num(static_cast<double>(lengths.p50), 0) +
                    " / " +
                    TablePrinter::Num(static_cast<double>(lengths.p95), 0) +
                    " / " +
                    TablePrinter::Num(static_cast<double>(lengths.max), 0)});
  table.AddRow({"mean stay length h", "48",
                TablePrinter::Num(lengths.mean, 1)});
  std::cout << "[" << name << "]\n" << table.ToString() << "\n";
}

}  // namespace
}  // namespace elda

int main(int argc, char** argv) {
  using namespace elda;
  bench::BenchScale scale;
  bench::BenchFlagValues values;
  util::ArgParser parser("bench_table1_dataset_stats",
                         "Table I: dataset statistics, paper vs synthetic "
                         "cohorts.");
  bench::RegisterBenchFlags(&parser, &values);
  parser.Parse(argc, argv);
  bench::ResolveBenchScale(values, &scale, /*default_admissions=*/1200);
  bench::PrintHeader(
      "Table I: dataset statistics (paper vs synthetic substitution)",
      "Class ratios, record density and missingness are generator-calibrated;"
      "\nexact per-cohort counts are Bernoulli draws around the target rates.");

  {
    synth::CohortConfig config = synth::SynthPhysioNet2012();
    const double factor =
        static_cast<double>(scale.physionet_admissions) / 12000.0;
    config.num_admissions = scale.physionet_admissions;
    data::EmrDataset cohort = synth::GenerateCohort(config);
    Report("PhysioNet2012 -> SynthPhysioNet2012", cohort,
           {12000, 10293, 1707, 4095, 7738, 359.19, 0.7978}, factor);
  }
  {
    synth::CohortConfig config = synth::SynthMimicIii();
    const double factor =
        static_cast<double>(scale.mimic_admissions) / 21139.0;
    config.num_admissions = scale.mimic_admissions;
    data::EmrDataset cohort = synth::GenerateCohort(config);
    Report("MIMIC-III -> SynthMimicIii", cohort,
           {21139, 18342, 2797, 9134, 12005, 346.05, 0.8052}, factor);
  }
  {
    // Variable-length variant: the same PhysioNet calibration with stays
    // drawn per patient (6 h .. 30 d), exercising the ragged substrate.
    synth::CohortConfig config = synth::SynthPhysioNet2012();
    const double factor =
        static_cast<double>(scale.physionet_admissions) / 12000.0;
    config.num_admissions = scale.physionet_admissions;
    config.variable_length = true;
    data::EmrDataset cohort = synth::GenerateCohort(config);
    Report("PhysioNet2012 -> SynthPhysioNet2012 (variable-length)", cohort,
           {12000, 10293, 1707, 4095, 7738, 359.19, 0.7978}, factor);
  }
  return 0;
}
