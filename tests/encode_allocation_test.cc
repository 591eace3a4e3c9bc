// The reporter's allocation contract, the client-side mirror of
// ingest_allocation_test.cc: once warmed up, ClientSession::AppendReport
// into a buffer with MaxReportBytes() of spare capacity makes ZERO heap
// allocations per report, for every frequency oracle and both stream kinds,
// and EncodeReport makes at most one (the string it returns). Counted with
// the binary's counting global operator new (allocation_counter.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "allocation_counter.h"
#include "api/pipeline.h"
#include "util/random.h"

namespace ldp {
namespace {

constexpr uint64_t kWarmup = 200;
constexpr uint64_t kMeasured = 2000;

struct Protocol {
  const char* name;
  bool numeric_schema;
  MechanismKind mechanism;
  FrequencyOracleKind oracle;
  double epsilon;
};

// Every oracle at k = 1 (ε = 4) and k = 3 (ε = 7.5), OUE and SUE also on
// their per-bit encoders (ε = 1), and the numeric stream kind.
std::vector<Protocol> Protocols() {
  std::vector<Protocol> protocols;
  for (const FrequencyOracleKind oracle :
       {FrequencyOracleKind::kGrr, FrequencyOracleKind::kSue,
        FrequencyOracleKind::kOue, FrequencyOracleKind::kOlh,
        FrequencyOracleKind::kHe, FrequencyOracleKind::kThe}) {
    for (const double epsilon : {1.0, 4.0, 7.5}) {
      protocols.push_back({FrequencyOracleKindToString(oracle), false,
                           MechanismKind::kHybrid, oracle, epsilon});
    }
  }
  for (const double epsilon : {4.0, 7.5}) {
    protocols.push_back({"numeric PM", true, MechanismKind::kPiecewise,
                         FrequencyOracleKind::kOue, epsilon});
    protocols.push_back({"numeric HM", true, MechanismKind::kHybrid,
                         FrequencyOracleKind::kOue, epsilon});
  }
  return protocols;
}

struct Fixture {
  api::ClientSession client;
  std::vector<MixedTuple> rows;
};

Fixture Make(const Protocol& protocol) {
  api::PipelineConfig config;
  config.attributes =
      protocol.numeric_schema
          ? std::vector<MixedAttribute>{MixedAttribute::Numeric(),
                                        MixedAttribute::Numeric(),
                                        MixedAttribute::Numeric()}
          : std::vector<MixedAttribute>{
                MixedAttribute::Numeric(), MixedAttribute::Categorical(8),
                MixedAttribute::Categorical(32), MixedAttribute::Numeric(),
                MixedAttribute::Categorical(3)};
  config.epsilon = protocol.epsilon;
  config.mechanism = protocol.mechanism;
  config.oracle = protocol.oracle;
  auto pipeline = api::Pipeline::Create(config);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  auto client = pipeline.value().NewClient();
  EXPECT_TRUE(client.ok());
  Fixture fixture{client.value(), {}};
  Rng data(3);
  for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
    MixedTuple row(config.attributes.size());
    for (size_t j = 0; j < row.size(); ++j) {
      const MixedAttribute& attribute = config.attributes[j];
      row[j] = attribute.type == AttributeType::kNumeric
                   ? AttributeValue::Numeric(data.Uniform(-1.0, 1.0))
                   : AttributeValue::Categorical(static_cast<uint32_t>(
                         data.UniformIndex(attribute.domain_size)));
    }
    fixture.rows.push_back(std::move(row));
  }
  return fixture;
}

TEST(EncodeAllocationTest, SteadyStateAppendReportIsAllocationFree) {
  for (const Protocol& protocol : Protocols()) {
    const Fixture fixture = Make(protocol);
    std::string out;
    out.reserve(fixture.client.MaxReportBytes());
    uint64_t allocations_before = 0;
    for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
      if (i == kWarmup) allocations_before = HeapAllocationCount();
      Rng rng = api::UserRng(11, i);
      out.clear();
      ASSERT_TRUE(
          fixture.client.AppendReport(fixture.rows[i], &rng, &out).ok());
    }
    const uint64_t allocations = HeapAllocationCount() - allocations_before;
    EXPECT_EQ(allocations, 0u)
        << protocol.name << " at epsilon " << protocol.epsilon << ": "
        << allocations << " allocations over " << kMeasured << " reports";
  }
}

TEST(EncodeAllocationTest, EncodeReportAllocatesOnlyTheStringItReturns) {
  for (const Protocol& protocol : Protocols()) {
    const Fixture fixture = Make(protocol);
    uint64_t allocations_before = 0;
    for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
      if (i == kWarmup) allocations_before = HeapAllocationCount();
      Rng rng = api::UserRng(11, i);
      ASSERT_TRUE(fixture.client.EncodeReport(fixture.rows[i], &rng).ok());
    }
    const uint64_t allocations = HeapAllocationCount() - allocations_before;
    EXPECT_LE(allocations, kMeasured)
        << protocol.name << " at epsilon " << protocol.epsilon << ": "
        << allocations << " allocations over " << kMeasured << " reports";
  }
}

}  // namespace
}  // namespace ldp
