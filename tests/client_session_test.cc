// ClientSession, the reporter's encoder: AppendReport's failure contract,
// the protocols the wire format can and cannot carry, and concurrent
// encoding through one shared session (run under TSan in CI).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "core/sampled_numeric.h"
#include "core/wire.h"
#include "stream/report_stream.h"
#include "util/random.h"

namespace ldp {
namespace {

Result<api::Pipeline> MakePipeline(std::vector<MixedAttribute> attributes,
                                   double epsilon, FrequencyOracleKind oracle) {
  api::PipelineConfig config;
  config.attributes = std::move(attributes);
  config.epsilon = epsilon;
  config.oracle = oracle;
  return api::Pipeline::Create(config);
}

api::ClientSession MakeClient(const Result<api::Pipeline>& pipeline) {
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  auto client = pipeline.value().NewClient();
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.value();
}

TEST(ClientSessionTest, FailedAppendLeavesTheBufferAsItWas) {
  const api::ClientSession mixed = MakeClient(MakePipeline(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(4)}, 4.0,
      FrequencyOracleKind::kOue));
  Rng rng(1);
  std::string out = "kept";
  const Status short_row = mixed.AppendReport(MixedTuple(1), &rng, &out);
  EXPECT_EQ(short_row.code(), StatusCode::kInvalidArgument);
  const Status numeric_row =
      mixed.AppendReport(std::vector<double>{0.5, 0.5}, &rng, &out);
  EXPECT_EQ(numeric_row.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, "kept");

  // Four HE entries of 65535 words each: a 1048590-byte payload, past
  // kMaxFrameBytes. The frame is dropped, as AppendFrame refuses it.
  const api::ClientSession huge = MakeClient(
      MakePipeline(std::vector<MixedAttribute>(
                       4, MixedAttribute::Categorical(UINT16_MAX)),
                   10.0, FrequencyOracleKind::kHe));
  ASSERT_EQ(huge.k(), 4u);
  const Status oversized =
      huge.AppendReport(MixedTuple(4, AttributeValue::Categorical(7)), &rng,
                        &out);
  EXPECT_EQ(oversized.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, "kept");
  EXPECT_EQ(oversized.message(),
            stream::AppendFrame(std::string(stream::kMaxFrameBytes + 1, 'x'),
                                &out)
                .message());
}

TEST(ClientSessionTest, RefusesProtocolsTheWireCannotCarry) {
  // An HE report carries one u16-counted word per domain value.
  const Result<api::Pipeline> too_wide = MakePipeline(
      {MixedAttribute::Categorical(70000)}, 1.0, FrequencyOracleKind::kHe);
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(MixedTupleCollector::Create({MixedAttribute::Categorical(70000)},
                                           1.0, MechanismKind::kHybrid,
                                           FrequencyOracleKind::kOue)
                   .ok());
  // OLH's reports are three words at any domain size.
  EXPECT_TRUE(MakePipeline({MixedAttribute::Categorical(70000)}, 1.0,
                           FrequencyOracleKind::kOlh)
                  .ok());
  // The entry count is a u16 too.
  EXPECT_EQ(SampledNumericMechanism::CreateWithSampleCount(
                MechanismKind::kHybrid, 1.0, 70000, 70000)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(SampledNumericMechanism::CreateWithSampleCount(
                  MechanismKind::kHybrid, 1.0, 70000, UINT16_MAX)
                  .ok());
}

TEST(ClientSessionTest, WidestHeDomainRoundTripsThroughTheDecoder) {
  const Result<api::Pipeline> pipeline =
      MakePipeline({MixedAttribute::Categorical(UINT16_MAX)}, 1.0,
                   FrequencyOracleKind::kHe);
  const api::ClientSession client = MakeClient(pipeline);
  const MixedTupleCollector& collector = pipeline.value().mixed_collector();
  for (uint64_t user = 0; user < 3; ++user) {
    const MixedTuple row = {AttributeValue::Categorical(
        static_cast<uint32_t>(user * 20000))};
    Rng rng = api::UserRng(5, user);
    Rng reference_rng = api::UserRng(5, user);
    std::string frame;
    ASSERT_TRUE(client.AppendReport(row, &rng, &frame).ok());
    ASSERT_LE(frame.size(), client.MaxReportBytes());
    auto decoded =
        DecodeMixedReport(frame.data() + 4, frame.size() - 4, collector);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const MixedReport expected = collector.Perturb(row, &reference_rng);
    ASSERT_EQ(decoded.value().size(), 1u);
    EXPECT_EQ(decoded.value()[0].categorical_report.size(), UINT16_MAX);
    EXPECT_EQ(decoded.value()[0].categorical_report,
              expected[0].categorical_report);
  }
}

// Four threads share one session, each encoding every fourth user through
// both EncodeReport and AppendReport; every frame must equal the serial
// run's.
void ExpectConcurrentEncodeMatchesSerial(const api::ClientSession& client,
                                         const std::vector<MixedTuple>& rows) {
  const auto encode = [&](uint64_t user, bool append) {
    Rng rng = api::UserRng(17, user);
    std::string frame;
    if (append) {
      EXPECT_TRUE(client.AppendReport(rows[user], &rng, &frame).ok());
    } else {
      auto payload = client.EncodeReport(rows[user], &rng);
      EXPECT_TRUE(payload.ok());
      EXPECT_TRUE(stream::AppendFrame(payload.value(), &frame).ok());
    }
    return frame;
  };
  std::vector<std::string> serial(rows.size());
  for (uint64_t user = 0; user < rows.size(); ++user) {
    serial[user] = encode(user, /*append=*/true);
  }
  constexpr unsigned kThreads = 4;
  std::vector<std::string> concurrent(rows.size());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t user = t; user < rows.size(); user += kThreads) {
        concurrent[user] = encode(user, /*append=*/(user / kThreads) % 2 == 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint64_t user = 0; user < rows.size(); ++user) {
    ASSERT_EQ(concurrent[user], serial[user]) << "user " << user;
  }
}

std::vector<MixedTuple> Rows(const std::vector<MixedAttribute>& attributes,
                             uint64_t count) {
  Rng data(9);
  std::vector<MixedTuple> rows(count, MixedTuple(attributes.size()));
  for (MixedTuple& row : rows) {
    for (size_t j = 0; j < attributes.size(); ++j) {
      row[j] = attributes[j].type == AttributeType::kNumeric
                   ? AttributeValue::Numeric(data.Uniform(-1.0, 1.0))
                   : AttributeValue::Categorical(static_cast<uint32_t>(
                         data.UniformIndex(attributes[j].domain_size)));
    }
  }
  return rows;
}

TEST(ClientSessionConcurrencyTest, SharedSessionEncodesLikeASerialRun) {
  const std::vector<MixedAttribute> mixed = {
      MixedAttribute::Numeric(), MixedAttribute::Categorical(16),
      MixedAttribute::Categorical(200), MixedAttribute::Numeric()};
  const std::vector<MixedAttribute> numeric(5, MixedAttribute::Numeric());
  for (const double epsilon : {4.0, 7.5}) {
    for (const FrequencyOracleKind oracle :
         {FrequencyOracleKind::kOue, FrequencyOracleKind::kHe}) {
      ExpectConcurrentEncodeMatchesSerial(
          MakeClient(MakePipeline(mixed, epsilon, oracle)), Rows(mixed, 2000));
    }
    ExpectConcurrentEncodeMatchesSerial(
        MakeClient(MakePipeline(numeric, epsilon, FrequencyOracleKind::kOue)),
        Rows(numeric, 2000));
  }
}

}  // namespace
}  // namespace ldp
