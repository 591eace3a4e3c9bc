#include "stream/report_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/wire.h"
#include "frequency/olh.h"
#include "stream/shard_ingester.h"
#include "stream/snapshot.h"
#include "util/random.h"

namespace ldp::stream {
namespace {

MixedTupleCollector MakeCollector(double epsilon = 6.0) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      epsilon);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

MixedTuple SampleTuple() {
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.3);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.7);
  tuple[3] = AttributeValue::Categorical(5);
  return tuple;
}

// A complete in-memory stream with `reports` perturbed reports.
std::string MakeStream(const MixedTupleCollector& collector, int reports,
                       uint64_t seed = 1) {
  std::ostringstream out;
  ReportStreamWriter writer(&out, MakeMixedStreamHeader(collector));
  Rng rng(seed);
  for (int i = 0; i < reports; ++i) {
    EXPECT_TRUE(
        writer.WriteMixedReport(collector.Perturb(SampleTuple(), &rng),
                                collector)
            .ok());
  }
  return out.str();
}

TEST(StreamHeaderTest, RoundTrips) {
  const MixedTupleCollector collector = MakeCollector();
  const StreamHeader header = MakeMixedStreamHeader(collector);
  const std::string bytes = EncodeStreamHeader(header);
  EXPECT_EQ(bytes.size(), kStreamHeaderBytes);
  auto decoded = DecodeStreamHeader(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().kind, ReportStreamKind::kMixed);
  EXPECT_EQ(decoded.value().mechanism, collector.numeric_kind());
  EXPECT_EQ(decoded.value().oracle, collector.categorical_kind());
  EXPECT_EQ(decoded.value().epsilon, collector.epsilon());
  EXPECT_EQ(decoded.value().dimension, collector.dimension());
  EXPECT_EQ(decoded.value().k, collector.k());
  EXPECT_EQ(decoded.value().schema_hash, CollectorSchemaHash(collector));
  EXPECT_TRUE(ValidateMixedStreamHeader(decoded.value(), collector).ok());
}

TEST(StreamHeaderTest, NumericHeaderRoundTrips) {
  auto mechanism =
      SampledNumericMechanism::Create(MechanismKind::kPiecewise, 2.0, 8);
  ASSERT_TRUE(mechanism.ok());
  const StreamHeader header =
      MakeNumericStreamHeader(mechanism.value(), MechanismKind::kPiecewise);
  auto decoded = DecodeStreamHeader(EncodeStreamHeader(header));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().kind, ReportStreamKind::kSampledNumeric);
  EXPECT_EQ(decoded.value().mechanism, MechanismKind::kPiecewise);
  EXPECT_EQ(decoded.value().dimension, 8u);
  EXPECT_EQ(decoded.value().schema_hash,
            NumericSchemaHash(mechanism.value(), MechanismKind::kPiecewise));
}

TEST(StreamHeaderTest, RejectsTruncation) {
  const std::string bytes =
      EncodeStreamHeader(MakeMixedStreamHeader(MakeCollector()));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeStreamHeader(bytes.substr(0, cut)).ok()) << cut;
  }
}

TEST(StreamHeaderTest, RejectsBadMagicVersionAndEnums) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string good =
      EncodeStreamHeader(MakeMixedStreamHeader(collector));

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeStreamHeader(bad_magic).ok());

  std::string bad_version = good;
  bad_version[4] = 99;
  EXPECT_FALSE(DecodeStreamHeader(bad_version).ok());

  std::string bad_kind = good;
  bad_kind[6] = 42;
  EXPECT_FALSE(DecodeStreamHeader(bad_kind).ok());

  std::string bad_mechanism = good;
  bad_mechanism[7] = 42;
  EXPECT_FALSE(DecodeStreamHeader(bad_mechanism).ok());

  std::string bad_oracle = good;
  bad_oracle[8] = 42;
  EXPECT_FALSE(DecodeStreamHeader(bad_oracle).ok());
}

TEST(StreamHeaderTest, RejectsInconsistentGeometry) {
  StreamHeader header = MakeMixedStreamHeader(MakeCollector());
  header.k = header.dimension + 1;  // k > d
  EXPECT_FALSE(DecodeStreamHeader(EncodeStreamHeader(header)).ok());
  header.k = 0;
  EXPECT_FALSE(DecodeStreamHeader(EncodeStreamHeader(header)).ok());
  header = MakeMixedStreamHeader(MakeCollector());
  header.epsilon = 0.0;
  EXPECT_FALSE(DecodeStreamHeader(EncodeStreamHeader(header)).ok());
}

TEST(StreamHeaderTest, ValidationCatchesEveryMismatch) {
  const MixedTupleCollector collector = MakeCollector(6.0);
  StreamHeader header = MakeMixedStreamHeader(collector);

  StreamHeader wrong = header;
  wrong.kind = ReportStreamKind::kSampledNumeric;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  wrong = header;
  wrong.epsilon = 5.0;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  wrong = header;
  wrong.mechanism = MechanismKind::kPiecewise;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  wrong = header;
  wrong.oracle = FrequencyOracleKind::kGrr;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  wrong = header;
  wrong.schema_hash ^= 1;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  // A collector over a different schema must be rejected via the hash even
  // when ε, d and k all agree.
  auto other = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(5),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      6.0);
  ASSERT_TRUE(other.ok());
  ASSERT_EQ(other.value().k(), collector.k());
  EXPECT_FALSE(ValidateMixedStreamHeader(header, other.value()).ok());
  EXPECT_NE(CollectorSchemaHash(collector),
            CollectorSchemaHash(other.value()));
}

TEST(ReportStreamTest, WriterReaderRoundTrip) {
  const MixedTupleCollector collector = MakeCollector();
  std::ostringstream sink;
  ReportStreamWriter writer(&sink, MakeMixedStreamHeader(collector));
  Rng rng(3);
  std::vector<MixedReport> reports;
  for (int i = 0; i < 50; ++i) {
    reports.push_back(collector.Perturb(SampleTuple(), &rng));
    ASSERT_TRUE(writer.WriteMixedReport(reports.back(), collector).ok());
  }
  EXPECT_EQ(writer.frames_written(), 50u);

  std::istringstream source(sink.str());
  ReportStreamReader reader(&source);
  auto header = reader.ReadHeader();
  ASSERT_TRUE(header.ok());
  ASSERT_TRUE(ValidateMixedStreamHeader(header.value(), collector).ok());
  std::string payload;
  for (int i = 0; i < 50; ++i) {
    auto frame = reader.NextFrame(&payload);
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame.value());
    auto decoded = DecodeMixedReport(payload, collector);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), reports[i].size());
    for (size_t j = 0; j < reports[i].size(); ++j) {
      EXPECT_EQ(decoded.value()[j].attribute, reports[i][j].attribute);
      EXPECT_EQ(decoded.value()[j].numeric_value,
                reports[i][j].numeric_value);
      EXPECT_EQ(decoded.value()[j].categorical_report,
                reports[i][j].categorical_report);
    }
  }
  auto eof = reader.NextFrame(&payload);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value());
}

TEST(ReportStreamTest, ReaderRequiresHeaderFirst) {
  std::istringstream source("anything");
  ReportStreamReader reader(&source);
  std::string payload;
  EXPECT_FALSE(reader.NextFrame(&payload).ok());
}

TEST(ReportStreamTest, ReaderRejectsOversizedAndPartialFrames) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 1);

  // Oversized frame length after the valid report.
  std::string oversized = bytes;
  oversized += std::string("\xff\xff\xff\xff", 4);
  std::istringstream source(oversized);
  ReportStreamReader reader(&source);
  ASSERT_TRUE(reader.ReadHeader().ok());
  std::string payload;
  ASSERT_TRUE(reader.NextFrame(&payload).value());
  EXPECT_FALSE(reader.NextFrame(&payload).ok());

  // Truncated mid-frame.
  std::istringstream truncated(bytes.substr(0, bytes.size() - 3));
  ReportStreamReader truncated_reader(&truncated);
  ASSERT_TRUE(truncated_reader.ReadHeader().ok());
  EXPECT_FALSE(truncated_reader.NextFrame(&payload).ok());
}

TEST(ShardIngesterTest, IngestsWholeStream) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 200);
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(bytes).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_TRUE(ingester.header_seen());
  EXPECT_EQ(ingester.stats().frames, 200u);
  EXPECT_EQ(ingester.stats().accepted, 200u);
  EXPECT_EQ(ingester.stats().rejected, 0u);
  EXPECT_EQ(ingester.stats().bytes, bytes.size());
  EXPECT_EQ(ingester.aggregator().num_reports(), 200u);
}

TEST(ShardIngesterTest, ByteAtATimeFeedMatchesWholeBuffer) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 64);

  ShardIngester whole(&collector);
  ASSERT_TRUE(whole.Feed(bytes).ok());
  ASSERT_TRUE(whole.Finish().ok());

  ShardIngester dribble(&collector);
  for (const char byte : bytes) {
    ASSERT_TRUE(dribble.Feed(&byte, 1).ok());
  }
  ASSERT_TRUE(dribble.Finish().ok());

  EXPECT_EQ(whole.aggregator().num_reports(),
            dribble.aggregator().num_reports());
  EXPECT_EQ(whole.aggregator().numeric_sums(),
            dribble.aggregator().numeric_sums());
  EXPECT_EQ(whole.aggregator().supports(), dribble.aggregator().supports());
  EXPECT_EQ(whole.aggregator().attribute_report_counts(),
            dribble.aggregator().attribute_report_counts());
}

TEST(ShardIngesterTest, EveryChunkingMatchesWholeBufferAcrossRingWraps) {
  // Chunk sizes that are coprime to the frame sizes force every possible
  // item/chunk phase, repeatedly staging partial items in the ring and
  // marching its read head around the wrap boundary. A long stream makes
  // the head lap the (small, power-of-two) ring many times for each chunk
  // size. All of them must reproduce the one-shot Feed bit for bit.
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 400);

  ShardIngester whole(&collector);
  ASSERT_TRUE(whole.Feed(bytes).ok());
  ASSERT_TRUE(whole.Finish().ok());
  ASSERT_EQ(whole.stats().accepted, 400u);

  for (const size_t chunk : {2u, 3u, 5u, 7u, 11u, 13u, 17u, 26u, 31u, 64u,
                             127u, 255u, 1000u}) {
    ShardIngester chunked(&collector);
    for (size_t cursor = 0; cursor < bytes.size(); cursor += chunk) {
      const size_t take = std::min(chunk, bytes.size() - cursor);
      ASSERT_TRUE(chunked.Feed(bytes.data() + cursor, take).ok())
          << "chunk size " << chunk;
    }
    ASSERT_TRUE(chunked.Finish().ok()) << "chunk size " << chunk;
    EXPECT_EQ(chunked.stats().accepted, whole.stats().accepted)
        << "chunk size " << chunk;
    EXPECT_EQ(chunked.stats().bytes, whole.stats().bytes);
    EXPECT_EQ(chunked.aggregator().num_reports(),
              whole.aggregator().num_reports());
    EXPECT_EQ(chunked.aggregator().numeric_sums(),
              whole.aggregator().numeric_sums());
    EXPECT_EQ(chunked.aggregator().supports(), whole.aggregator().supports());
    EXPECT_EQ(chunked.aggregator().attribute_report_counts(),
              whole.aggregator().attribute_report_counts());
  }
}

// Raw mixed-report bytes with any entry kind byte, for frames the encoder
// cannot produce. Categorical entries carry `payload`, numeric ones `value`.
struct RawEntry {
  uint32_t attribute = 0;
  uint8_t kind = 0;
  double value = 0.0;
  std::vector<uint32_t> payload;
};

std::string EncodeRawReport(const std::vector<RawEntry>& entries) {
  std::string out;
  internal_wire::PutU16(&out, static_cast<uint16_t>(entries.size()));
  for (const RawEntry& entry : entries) {
    internal_wire::PutU32(&out, entry.attribute);
    internal_wire::PutU8(&out, entry.kind);
    if (entry.kind == internal_wire::kNumericEntry) {
      internal_wire::PutF64(&out, entry.value);
    } else {
      internal_wire::PutU16(&out, static_cast<uint16_t>(entry.payload.size()));
      for (const uint32_t word : entry.payload) {
        internal_wire::PutU32(&out, word);
      }
    }
  }
  return out;
}

// Schema of the differential table: numeric attributes 0, 2, 4 and
// categorical attributes 1 (domain 5), 3 (domain 12), 5 (domain 3).
constexpr uint32_t kWideCategorical = 3;
constexpr uint32_t kWideDomain = 12;

MixedTuple DifferentialTuple(Rng* rng) {
  MixedTuple tuple(6);
  tuple[0] = AttributeValue::Numeric(rng->Uniform(-1.0, 1.0));
  tuple[1] = AttributeValue::Categorical(
      static_cast<uint32_t>(rng->UniformIndex(5)));
  tuple[2] = AttributeValue::Numeric(rng->Uniform(-1.0, 1.0));
  tuple[3] = AttributeValue::Categorical(
      static_cast<uint32_t>(rng->UniformIndex(kWideDomain)));
  tuple[4] = AttributeValue::Numeric(-0.5);
  tuple[5] = AttributeValue::Categorical(
      static_cast<uint32_t>(rng->UniformIndex(3)));
  return tuple;
}

RawEntry Categorical(uint32_t attribute, std::vector<uint32_t> payload) {
  RawEntry entry;
  entry.attribute = attribute;
  entry.kind = internal_wire::kCategoricalEntry;
  entry.payload = std::move(payload);
  return entry;
}

RawEntry Numeric(uint32_t attribute, double value) {
  RawEntry entry;
  entry.attribute = attribute;
  entry.kind = internal_wire::kNumericEntry;
  entry.value = value;
  return entry;
}

// One hostile entry completed to k entries with honest numeric ones.
std::string HostileReport(const MixedTupleCollector& collector,
                          RawEntry hostile) {
  std::vector<RawEntry> entries = {std::move(hostile)};
  for (uint32_t attribute : {0u, 2u, 4u}) {
    if (entries.size() == collector.k()) break;
    if (attribute == entries[0].attribute) continue;
    entries.push_back(Numeric(attribute, 0.25));
  }
  return EncodeRawReport(entries);
}

// Honest frames interleaved with every kind of hostile frame the decoder
// must refuse (or, for a bit flip that happens to stay well-formed, accept
// exactly as the reference does).
std::vector<std::string> DifferentialFrames(
    const MixedTupleCollector& collector, uint64_t seed) {
  Rng rng(seed);
  auto honest = [&] {
    return EncodeMixedReport(collector.Perturb(DifferentialTuple(&rng), &rng),
                             collector);
  };
  std::vector<std::string> hostile;
  const std::string cut = honest();
  for (size_t size = 0; size < cut.size(); ++size) {
    hostile.push_back(cut.substr(0, size));
  }
  const std::string flipped = honest();
  for (size_t i = 0; i < flipped.size(); ++i) {
    std::string frame = flipped;
    frame[i] = static_cast<char>(frame[i] ^ (1 << (i % 8)));
    hostile.push_back(frame);
  }
  std::string trailing = honest();
  trailing.push_back('\0');
  hostile.push_back(trailing);
  // A duplicate attribute, and wrong or unknown entry kinds.
  hostile.push_back(EncodeRawReport(
      std::vector<RawEntry>(collector.k() + 1, Numeric(0, 0.25))));
  hostile.push_back(EncodeRawReport(
      std::vector<RawEntry>(collector.k(), Numeric(2, 0.25))));
  hostile.push_back(HostileReport(collector, Numeric(kWideCategorical, 0.0)));
  hostile.push_back(HostileReport(collector, Categorical(0, {})));
  RawEntry unknown_kind = Numeric(2, 0.0);
  unknown_kind.kind = 7;
  hostile.push_back(HostileReport(collector, unknown_kind));
  // Out-of-domain and non-increasing unary bits.
  hostile.push_back(
      HostileReport(collector, Categorical(kWideCategorical, {kWideDomain})));
  hostile.push_back(
      HostileReport(collector, Categorical(kWideCategorical, {1, 4, 4})));
  hostile.push_back(
      HostileReport(collector, Categorical(kWideCategorical, {6, 2})));
  // OLH: a bucket at and far past g, and a short payload.
  const uint32_t g =
      collector.categorical_kind() == FrequencyOracleKind::kOlh
          ? static_cast<const OlhOracle*>(
                collector.oracle_for(kWideCategorical))
                ->hash_range()
          : 2;
  hostile.push_back(HostileReport(
      collector, Categorical(kWideCategorical, {0x1234, 0x5678, g})));
  hostile.push_back(HostileReport(
      collector, Categorical(kWideCategorical, {7, 9, 0xffffffffu})));
  hostile.push_back(
      HostileReport(collector, Categorical(kWideCategorical, {7, 9})));
  // HE: one component too few and one too many; a payload past the
  // oracle's maximum.
  hostile.push_back(HostileReport(
      collector, Categorical(kWideCategorical,
                             std::vector<uint32_t>(kWideDomain - 1, 5))));
  hostile.push_back(HostileReport(
      collector, Categorical(kWideCategorical,
                             std::vector<uint32_t>(kWideDomain + 1, 5))));
  // A NaN numeric value and one past the scaled bound.
  hostile.push_back(HostileReport(
      collector, Numeric(2, std::numeric_limits<double>::quiet_NaN())));
  hostile.push_back(HostileReport(
      collector,
      Numeric(2, 1.0001 * ScaledValueBound(
                              collector.dimension(), collector.k(),
                              collector.scalar_mechanism().OutputBound()))));

  std::vector<std::string> frames;
  for (const std::string& frame : hostile) {
    frames.push_back(honest());
    frames.push_back(frame);
  }
  for (int i = 0; i < 200; ++i) frames.push_back(honest());
  return frames;
}

TEST(ShardIngesterTest, VisitorDecodeMatchesMaterializingDecodeBitForBit) {
  // The ingest path validates and accumulates straight from the wire bytes
  // (AggregatorHandle::AcceptFrames -> MixedFrameDecoder::Decode with the
  // aggregator as its sink). For every oracle kind, both numeric
  // mechanisms, k = 1 and k >= 2, and honest frames interleaved with
  // hostile ones, it must count, aggregate and snapshot exactly like
  // decoding every frame into a MixedReport and Add()ing it, at any chunk
  // size; in strict mode it must fail with the reference's rejection.
  for (const FrequencyOracleKind oracle :
       {FrequencyOracleKind::kOue, FrequencyOracleKind::kSue,
        FrequencyOracleKind::kGrr, FrequencyOracleKind::kOlh,
        FrequencyOracleKind::kThe, FrequencyOracleKind::kHe}) {
    for (const MechanismKind mechanism :
         {MechanismKind::kPiecewise, MechanismKind::kHybrid}) {
      for (const double epsilon : {1.0, 6.0}) {
        SCOPED_TRACE(std::string(FrequencyOracleKindToString(oracle)) + "/" +
                     MechanismKindToString(mechanism) +
                     " epsilon=" + std::to_string(epsilon));
        auto created = MixedTupleCollector::Create(
            {MixedAttribute::Numeric(), MixedAttribute::Categorical(5),
             MixedAttribute::Numeric(),
             MixedAttribute::Categorical(kWideDomain),
             MixedAttribute::Numeric(), MixedAttribute::Categorical(3)},
            epsilon, mechanism, oracle);
        ASSERT_TRUE(created.ok());
        const MixedTupleCollector& collector = created.value();
        ASSERT_EQ(collector.k(), epsilon < 2.5 ? 1u : 2u);

        const std::vector<std::string> frames =
            DifferentialFrames(collector, 17 + collector.k());
        std::ostringstream out;
        ReportStreamWriter writer(&out, MakeMixedStreamHeader(collector));
        MixedAggregator reference(&collector);
        uint64_t accepted = 0;
        uint64_t rejected = 0;
        Status first_rejection = Status::OK();
        for (const std::string& frame : frames) {
          ASSERT_TRUE(writer.WriteFrame(frame).ok());
          auto report = DecodeMixedReport(frame, collector);
          if (report.ok()) {
            reference.Add(report.value());
            ++accepted;
          } else {
            ++rejected;
            if (first_rejection.ok()) first_rejection = report.status();
          }
        }
        ASSERT_GE(rejected, 30u);
        ASSERT_GT(accepted, 200u);
        const std::string bytes = out.str();

        for (const size_t chunk : {size_t{1}, size_t{7}, size_t{256 << 10}}) {
          SCOPED_TRACE("chunk=" + std::to_string(chunk));
          ShardIngester ingester(&collector);
          for (size_t at = 0; at < bytes.size(); at += chunk) {
            ASSERT_TRUE(ingester
                            .Feed(bytes.data() + at,
                                  std::min(chunk, bytes.size() - at))
                            .ok());
          }
          ASSERT_TRUE(ingester.Finish().ok());
          EXPECT_EQ(ingester.stats().frames, frames.size());
          EXPECT_EQ(ingester.stats().accepted, accepted);
          EXPECT_EQ(ingester.stats().rejected, rejected);
          const MixedAggregator& streamed = ingester.aggregator();
          EXPECT_EQ(streamed.num_reports(), reference.num_reports());
          EXPECT_EQ(streamed.attribute_report_counts(),
                    reference.attribute_report_counts());
          EXPECT_EQ(streamed.numeric_sums(), reference.numeric_sums());
          EXPECT_EQ(streamed.supports(), reference.supports());
          EXPECT_EQ(EncodeAggregatorSnapshot(streamed),
                    EncodeAggregatorSnapshot(reference));
        }

        ShardIngester::Options strict_options;
        strict_options.strict = true;
        ShardIngester strict(&collector, strict_options);
        Status poisoned = Status::OK();
        for (size_t at = 0; at < bytes.size() && poisoned.ok(); at += 7) {
          poisoned = strict.Feed(bytes.data() + at,
                                 std::min<size_t>(7, bytes.size() - at));
        }
        ASSERT_FALSE(poisoned.ok());
        EXPECT_EQ(poisoned.code(), first_rejection.code());
        EXPECT_EQ(poisoned.message(), "undecodable report in strict mode: " +
                                          first_rejection.message());
        EXPECT_EQ(strict.stats().rejected, 1u);
      }
    }
  }
}

TEST(ShardIngesterTest, MatchesStreamlessAggregation) {
  const MixedTupleCollector collector = MakeCollector();
  MixedAggregator direct(&collector);
  std::ostringstream sink;
  ReportStreamWriter writer(&sink, MakeMixedStreamHeader(collector));
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const MixedReport report = collector.Perturb(SampleTuple(), &rng);
    direct.Add(report);
    ASSERT_TRUE(writer.WriteMixedReport(report, collector).ok());
  }
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(sink.str()).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.aggregator().num_reports(), direct.num_reports());
  EXPECT_EQ(ingester.aggregator().numeric_sums(), direct.numeric_sums());
  EXPECT_EQ(ingester.aggregator().supports(), direct.supports());
}

TEST(ShardIngesterTest, RejectsMismatchedHeader) {
  const MixedTupleCollector collector = MakeCollector(6.0);
  const MixedTupleCollector other = MakeCollector(5.0);
  const std::string bytes = MakeStream(other, 5);
  ShardIngester ingester(&collector);
  EXPECT_FALSE(ingester.Feed(bytes).ok());
  EXPECT_EQ(ingester.stats().accepted, 0u);
  // Poisoned: every later call reports the same failure.
  EXPECT_FALSE(ingester.Feed(bytes).ok());
  EXPECT_FALSE(ingester.Finish().ok());
}

TEST(ShardIngesterTest, SkipsMalformedFramesByDefault) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 3);
  // Append a frame whose payload is garbage (valid framing, bad report).
  std::string garbage_frame;
  ASSERT_TRUE(AppendFrame("not a report", &garbage_frame).ok());
  bytes += garbage_frame;
  const std::string more = MakeStream(collector, 2, 77);
  bytes += more.substr(kStreamHeaderBytes);  // splice the 2 extra frames

  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(bytes).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.stats().frames, 6u);
  EXPECT_EQ(ingester.stats().accepted, 5u);
  EXPECT_EQ(ingester.stats().rejected, 1u);
  EXPECT_EQ(ingester.aggregator().num_reports(), 5u);
}

TEST(ShardIngesterTest, StrictModeFailsOnMalformedFrame) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 3);
  std::string garbage_frame;
  ASSERT_TRUE(AppendFrame("junk", &garbage_frame).ok());
  bytes += garbage_frame;

  ShardIngester::Options options;
  options.strict = true;
  ShardIngester ingester(&collector, options);
  Status status = ingester.Feed(bytes);
  if (status.ok()) status = ingester.Finish();
  EXPECT_FALSE(status.ok());
}

TEST(ShardIngesterTest, RejectionBudgetPoisonsTheStream) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 1);
  for (int i = 0; i < 3; ++i) {
    std::string garbage_frame;
    ASSERT_TRUE(AppendFrame("junk", &garbage_frame).ok());
    bytes += garbage_frame;
  }
  ShardIngester::Options options;
  options.max_rejected = 1;
  ShardIngester ingester(&collector, options);
  Status status = ingester.Feed(bytes);
  if (status.ok()) status = ingester.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ingester.stats().rejected, 2u);  // budget + the one over it
}

TEST(ShardIngesterTest, RejectsOversizedFrameLength) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 1);
  bytes += std::string("\xff\xff\xff\xff", 4);  // 4 GiB frame "length"
  ShardIngester ingester(&collector);
  EXPECT_FALSE(ingester.Feed(bytes).ok());
}

TEST(ShardIngesterTest, FinishRejectsTruncatedStreams) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 4);
  // A stream cut anywhere strictly inside the header must fail Finish.
  for (size_t cut = 0; cut < kStreamHeaderBytes; ++cut) {
    ShardIngester ingester(&collector);
    ASSERT_TRUE(ingester.Feed(bytes.data(), cut).ok());
    EXPECT_FALSE(ingester.Finish().ok()) << cut;
  }
  // A cut mid-frame:
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(bytes.data(), bytes.size() - 2).ok());
  EXPECT_FALSE(ingester.Finish().ok());
  // Header-only stream is a valid (empty) shard.
  ShardIngester empty(&collector);
  ASSERT_TRUE(empty.Feed(bytes.data(), kStreamHeaderBytes).ok());
  EXPECT_TRUE(empty.Finish().ok());
  EXPECT_EQ(empty.aggregator().num_reports(), 0u);
}

TEST(ShardIngesterTest, IngestStreamFromIstream) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 128);
  std::istringstream source(bytes);
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.IngestStream(source).ok());
  EXPECT_EQ(ingester.aggregator().num_reports(), 128u);
}

}  // namespace
}  // namespace ldp::stream
