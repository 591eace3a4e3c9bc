// Golden bytes of the reporter encoder. Each case hashes (FNV-1a 64) the
// framed bytes ClientSession produces for a few hundred reports at fixed
// seeds: every frequency oracle, OUE and SUE on both sides of
// UnaryEncodingOracle::kSkipSamplingMaxQ, PM and HM, k = 1 and k >= 2, and
// both stream kinds (plus the mixed kind over an all-numeric schema). The
// hashes pin the exact wire bytes, so any rewrite of the perturb/encode path
// must reproduce every report bit for bit, randomness consumption included.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "core/wire.h"
#include "frequency/unary_encoding.h"
#include "stream/report_stream.h"
#include "util/random.h"

namespace ldp {
namespace {

constexpr uint64_t kReports = 300;
constexpr uint64_t kPerturbSeed = 42;
constexpr uint64_t kDataSeed = 7;

enum class Schema {
  kMixed,         // numeric + categorical attributes: mixed stream kind
  kNumeric,       // all-numeric: numeric stream kind
  kNumericMixed,  // all-numeric, but forced onto the mixed stream kind
};

struct GoldenCase {
  const char* name;
  Schema schema;
  MechanismKind mechanism;
  FrequencyOracleKind oracle;
  double epsilon;  // 1 and 4 give k = 1; 7.5 gives k = 3
  uint64_t golden;
};

std::vector<MixedAttribute> AttributesOf(Schema schema) {
  if (schema == Schema::kMixed) {
    return {MixedAttribute::Numeric(), MixedAttribute::Categorical(6),
            MixedAttribute::Numeric(), MixedAttribute::Categorical(24),
            MixedAttribute::Categorical(2)};
  }
  return {MixedAttribute::Numeric(), MixedAttribute::Numeric(),
          MixedAttribute::Numeric(), MixedAttribute::Numeric()};
}

api::Pipeline MakePipeline(const GoldenCase& c) {
  api::PipelineConfig config;
  config.attributes = AttributesOf(c.schema);
  config.epsilon = c.epsilon;
  config.mechanism = c.mechanism;
  config.oracle = c.oracle;
  config.wire = c.schema == Schema::kNumericMixed ? api::WirePreference::kMixed
                                                  : api::WirePreference::kAuto;
  Result<api::Pipeline> pipeline = api::Pipeline::Create(config);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  return pipeline.value();
}

api::ClientSession MakeClient(const GoldenCase& c) {
  Result<api::ClientSession> client = MakePipeline(c).NewClient();
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.value();
}

// Row i of the fixed input table: uniform numeric values in [-1, 1] and
// uniform categories, drawn from one data generator in row order.
std::vector<MixedTuple> MakeRows(const std::vector<MixedAttribute>& schema) {
  Rng data(kDataSeed);
  std::vector<MixedTuple> rows(kReports, MixedTuple(schema.size()));
  for (MixedTuple& row : rows) {
    for (size_t j = 0; j < schema.size(); ++j) {
      row[j] = schema[j].type == AttributeType::kNumeric
                   ? AttributeValue::Numeric(data.Uniform(-1.0, 1.0))
                   : AttributeValue::Categorical(static_cast<uint32_t>(
                         data.UniformIndex(schema[j].domain_size)));
    }
  }
  return rows;
}

std::vector<double> NumericRow(const MixedTuple& row) {
  std::vector<double> values;
  for (const AttributeValue& value : row) values.push_back(value.numeric);
  return values;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(uint64_t hash) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64, hash);
  return text;
}

// The framed bytes of every report of the case, through the parent API:
// EncodeReport, then stream::AppendFrame. `numeric_rows` picks the
// pure-numeric row overload.
std::string EncodeAll(const GoldenCase& c, bool numeric_rows) {
  const api::ClientSession client = MakeClient(c);
  const std::vector<MixedTuple> rows = MakeRows(AttributesOf(c.schema));
  std::string bytes;
  for (uint64_t i = 0; i < kReports; ++i) {
    Rng rng = api::UserRng(kPerturbSeed, i);
    Result<std::string> payload =
        numeric_rows ? client.EncodeReport(NumericRow(rows[i]), &rng)
                     : client.EncodeReport(rows[i], &rng);
    EXPECT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_TRUE(stream::AppendFrame(payload.value(), &bytes).ok());
  }
  return bytes;
}

constexpr MechanismKind kHm = MechanismKind::kHybrid;
constexpr MechanismKind kPm = MechanismKind::kPiecewise;
constexpr FrequencyOracleKind kGrr = FrequencyOracleKind::kGrr;
constexpr FrequencyOracleKind kSue = FrequencyOracleKind::kSue;
constexpr FrequencyOracleKind kOue = FrequencyOracleKind::kOue;
constexpr FrequencyOracleKind kOlh = FrequencyOracleKind::kOlh;
constexpr FrequencyOracleKind kHe = FrequencyOracleKind::kHe;
constexpr FrequencyOracleKind kThe = FrequencyOracleKind::kThe;

// Per-attribute budgets ε/k: 1, 4 and 2.5. OUE's q = 1/(e^ε'+1) is 0.27
// (per-bit encoder) at ε' = 1 and below kSkipSamplingMaxQ (gap skipping) at
// 4 and 2.5; SUE's q = 1/(e^(ε'/2)+1) is 0.38 and 0.22 (per-bit) at 1 and
// 2.5, and 0.12 (gap skipping) at 4.
const GoldenCase kCases[] = {
    {"GRR_HM_e1", Schema::kMixed, kHm, kGrr, 1.0,
     0x9aaa23b1581cd1dd},
    {"GRR_HM_e4", Schema::kMixed, kHm, kGrr, 4.0,
     0xdb5ec6f95acd844c},
    {"GRR_HM_e7.5", Schema::kMixed, kHm, kGrr, 7.5,
     0x3712c8440d0b46a8},
    {"GRR_PM_e4", Schema::kMixed, kPm, kGrr, 4.0,
     0xf20ca07c1b4044bf},
    {"GRR_PM_e7.5", Schema::kMixed, kPm, kGrr, 7.5,
     0x657630d5c5464e94},
    {"SUE_HM_e1", Schema::kMixed, kHm, kSue, 1.0,
     0x885ae7c0d719e482},
    {"SUE_HM_e4", Schema::kMixed, kHm, kSue, 4.0,
     0x83167004a8704a2e},
    {"SUE_HM_e7.5", Schema::kMixed, kHm, kSue, 7.5,
     0x99743f8e2e4d4491},
    {"SUE_PM_e4", Schema::kMixed, kPm, kSue, 4.0,
     0xffc55c7d40691da1},
    {"OUE_HM_e1", Schema::kMixed, kHm, kOue, 1.0,
     0x5e151e130acec649},
    {"OUE_HM_e4", Schema::kMixed, kHm, kOue, 4.0,
     0xa6cac03a2cfd9763},
    {"OUE_HM_e7.5", Schema::kMixed, kHm, kOue, 7.5,
     0x4cd88c57dab9a3cc},
    {"OUE_PM_e1", Schema::kMixed, kPm, kOue, 1.0,
     0xaf4755162a749e15},
    {"OUE_PM_e4", Schema::kMixed, kPm, kOue, 4.0,
     0x904d783a7cef5a60},
    {"OUE_PM_e7.5", Schema::kMixed, kPm, kOue, 7.5,
     0x14e4b89419b845d0},
    {"OLH_HM_e1", Schema::kMixed, kHm, kOlh, 1.0,
     0x49bf1c716d82e047},
    {"OLH_HM_e4", Schema::kMixed, kHm, kOlh, 4.0,
     0xe48c513d4bafcf96},
    {"OLH_HM_e7.5", Schema::kMixed, kHm, kOlh, 7.5,
     0xe4409ed47a9ea0ce},
    {"OLH_PM_e7.5", Schema::kMixed, kPm, kOlh, 7.5,
     0x7b0db76f2220d966},
    {"HE_HM_e1", Schema::kMixed, kHm, kHe, 1.0,
     0x6c1e0d7bc913e43f},
    {"HE_HM_e4", Schema::kMixed, kHm, kHe, 4.0,
     0x701efaddc42803e1},
    {"HE_HM_e7.5", Schema::kMixed, kHm, kHe, 7.5,
     0x0395359432250dd8},
    {"HE_PM_e4", Schema::kMixed, kPm, kHe, 4.0,
     0x1e822523b7d9d91a},
    {"THE_HM_e1", Schema::kMixed, kHm, kThe, 1.0,
     0x1dd93df8ea6dc9c2},
    {"THE_HM_e4", Schema::kMixed, kHm, kThe, 4.0,
     0x5853d31e741622e8},
    {"THE_HM_e7.5", Schema::kMixed, kHm, kThe, 7.5,
     0x56632c46a806afd2},
    {"THE_PM_e7.5", Schema::kMixed, kPm, kThe, 7.5,
     0x7aea0791347e97d7},
    {"numeric_HM_e1", Schema::kNumeric, kHm, kOue, 1.0,
     0x084c204ec91e7bcc},
    {"numeric_HM_e4", Schema::kNumeric, kHm, kOue, 4.0,
     0xe99d3a5877be11ea},
    {"numeric_HM_e7.5", Schema::kNumeric, kHm, kOue, 7.5,
     0x611093d8cbd47a03},
    {"numeric_PM_e1", Schema::kNumeric, kPm, kOue, 1.0,
     0x1802a62a058b630a},
    {"numeric_PM_e4", Schema::kNumeric, kPm, kOue, 4.0,
     0x6824764f66e5e8fe},
    {"numeric_PM_e7.5", Schema::kNumeric, kPm, kOue, 7.5,
     0x42c05eea671409ad},
    {"numeric_as_mixed_HM_e4", Schema::kNumericMixed, kHm, kOue, 4.0,
     0xfd71553e3c6ea710},
    {"numeric_as_mixed_PM_e7.5", Schema::kNumericMixed, kPm, kOue, 7.5,
     0xc7957342d611c109},
};

TEST(EncodeGoldenTest, CasesCoverBothSidesOfTheUnarySkipThreshold) {
  // Guards the comments above: the per-bit and the gap-skipping unary
  // encoders both appear in the table.
  const double oue_q_e1 = 1.0 / (std::exp(1.0) + 1.0);
  const double oue_q_e4 = 1.0 / (std::exp(4.0) + 1.0);
  EXPECT_GT(oue_q_e1, UnaryEncodingOracle::kSkipSamplingMaxQ);
  EXPECT_LE(oue_q_e4, UnaryEncodingOracle::kSkipSamplingMaxQ);
}

TEST(EncodeGoldenTest, FramedBytesMatchTheGoldenHashes) {
  for (const GoldenCase& c : kCases) {
    const uint64_t hash = Fnv1a(EncodeAll(c, /*numeric_rows=*/false));
    EXPECT_EQ(Hex(hash), Hex(c.golden)) << c.name;
    if (c.schema != Schema::kMixed) {
      // The pure-numeric row overload writes the same bytes.
      EXPECT_EQ(Hex(Fnv1a(EncodeAll(c, /*numeric_rows=*/true))), Hex(c.golden))
          << c.name << " (numeric rows)";
    }
  }
}

// The same reports through the in-place encoder, appended into one buffer.
std::string AppendAll(const GoldenCase& c, bool numeric_rows) {
  const api::ClientSession client = MakeClient(c);
  const std::vector<MixedTuple> rows = MakeRows(AttributesOf(c.schema));
  std::string bytes;
  for (uint64_t i = 0; i < kReports; ++i) {
    Rng rng = api::UserRng(kPerturbSeed, i);
    const Status appended =
        numeric_rows ? client.AppendReport(NumericRow(rows[i]), &rng, &bytes)
                     : client.AppendReport(rows[i], &rng, &bytes);
    EXPECT_TRUE(appended.ok()) << appended.ToString();
  }
  return bytes;
}

TEST(EncodeGoldenTest, AppendReportWritesTheGoldenBytes) {
  for (const GoldenCase& c : kCases) {
    EXPECT_EQ(Hex(Fnv1a(AppendAll(c, /*numeric_rows=*/false))), Hex(c.golden))
        << c.name;
    if (c.schema != Schema::kMixed) {
      EXPECT_EQ(Hex(Fnv1a(AppendAll(c, /*numeric_rows=*/true))),
                Hex(c.golden))
          << c.name << " (numeric rows)";
    }
  }
}

// Differential: report by report, AppendReport against the materializing
// reference — the collector's MixedReport (or the Algorithm-4 report)
// encoded by EncodeMixedReport (EncodeSampledNumericReport) and framed by
// AppendFrame — under the same Rng, which both must leave in the same
// state.
TEST(EncodeGoldenTest, AppendReportMatchesTheReferenceEncoder) {
  for (const GoldenCase& c : kCases) {
    const api::Pipeline pipeline = MakePipeline(c);
    const api::ClientSession client = MakeClient(c);
    const std::vector<MixedTuple> rows = MakeRows(AttributesOf(c.schema));
    for (uint64_t i = 0; i < kReports; ++i) {
      Rng rng = api::UserRng(kPerturbSeed, i);
      Rng reference_rng = api::UserRng(kPerturbSeed, i);
      std::string appended;
      ASSERT_TRUE(client.AppendReport(rows[i], &rng, &appended).ok());
      const SampledNumericMechanism* numeric = pipeline.numeric_mechanism();
      const MixedTupleCollector& collector = pipeline.mixed_collector();
      const std::string payload =
          numeric != nullptr
              ? EncodeSampledNumericReport(
                    numeric->Perturb(NumericRow(rows[i]), &reference_rng))
              : EncodeMixedReport(collector.Perturb(rows[i], &reference_rng),
                                  collector);
      std::string reference;
      ASSERT_TRUE(stream::AppendFrame(payload, &reference).ok());
      ASSERT_EQ(appended, reference) << c.name << " report " << i;
      ASSERT_EQ(rng.Next(), reference_rng.Next()) << c.name << " report " << i;
    }
  }
}

}  // namespace
}  // namespace ldp
