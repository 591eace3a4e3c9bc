// The library's session facade: one config-driven entry point for every
// collection path in the paper and every deployment shape in the repo.
//
// A PipelineConfig names the full protocol — attribute schema, per-epoch
// budget ε, scalar mechanism and frequency oracle kinds, wire stream kind,
// an optional split-budget baseline strategy, and the epoch plan — and a
// Pipeline built from it hands out the three ways to run that protocol:
//
//   - Pipeline::Collect     in-process simulation over a Dataset (the old
//                           CollectProposed / CollectBaseline free functions
//                           are thin wrappers over this, bit for bit);
//   - Pipeline::NewClient   a ClientSession that perturbs rows — mixed or
//                           pure-numeric — straight onto the wire as frames
//                           of the framed report-stream format;
//   - Pipeline::NewServer   a ServerSession that owns shards, epochs and a
//                           PrivacyAccountant, and exposes Feed / Merge /
//                           Snapshot / Estimate (api/server_session.h).
//
// The pipeline resolves which stream kind its sessions speak: Section IV-C
// mixed streams whenever the schema has a categorical attribute, and the
// Algorithm-4 numeric stream kind for all-numeric schemas (overridable via
// PipelineConfig::wire). On an all-numeric schema the two paths draw the
// same randomness and accumulate the same doubles in the same order, so the
// choice never changes the estimates — only the bytes on the wire.

#ifndef LDP_API_PIPELINE_H_
#define LDP_API_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "core/mixed_collector.h"
#include "core/sampled_numeric.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "frequency/frequency_oracle.h"
#include "stream/report_stream.h"
#include "util/random.h"
#include "util/result.h"
#include "util/threadpool.h"

namespace ldp::api {

namespace internal_api {
struct PipelineState;  // shared protocol objects behind Pipeline + sessions
}  // namespace internal_api

/// Ground truth and LDP estimates from one in-process collection run.
struct CollectionOutput {
  /// Schema indices of the numeric columns, in schema order.
  std::vector<uint32_t> numeric_columns;
  /// Schema indices of the categorical columns, in schema order.
  std::vector<uint32_t> categorical_columns;
  /// Exact and estimated means, parallel to numeric_columns.
  std::vector<double> true_means;
  std::vector<double> estimated_means;
  /// Exact and estimated value frequencies, parallel to categorical_columns.
  std::vector<std::vector<double>> true_frequencies;
  std::vector<std::vector<double>> estimated_frequencies;
};

/// How a split-budget baseline pipeline handles the numeric attribute group.
enum class NumericStrategy {
  kLaplaceSplit,    ///< Laplace mechanism per attribute at ε/d each.
  kScdfSplit,       ///< SCDF per attribute at ε/d each.
  kStaircaseSplit,  ///< Staircase per attribute at ε/d each.
  kDuchiMulti,      ///< Duchi et al.'s Algorithm 3 at the group budget.
};

/// Human-readable strategy name ("Laplace", "SCDF", "Staircase", "Duchi").
const char* NumericStrategyToString(NumericStrategy strategy);

/// The per-user generator used by every collection pipeline: user `row`
/// under master seed `seed` always draws from the same stream, whether the
/// simulation runs single-threaded, pooled, or sharded across processes
/// (ldp_report derives client-side randomness the same way, which is what
/// makes sharded ingestion reproduce an in-process run exactly).
Rng UserRng(uint64_t seed, uint64_t row);

/// Builds the collection-attribute schema for a tabular data schema (numeric
/// columns must be normalised to [-1, 1] before collecting).
Result<std::vector<MixedAttribute>> AttributesFromSchema(
    const data::Schema& schema);

/// Normalises one streamed CSV row (the data::CsvRowReader output vectors)
/// into a canonical tuple: each numeric cell is mapped from its schema
/// [lo, hi] to the mechanisms' [-1, 1] with the same arithmetic as
/// data::NormalizeNumeric — the bit-exact reproduction contract between the
/// streaming tools and the materializing pipeline depends on this being the
/// one shared implementation. `tuple` must be sized to the schema's column
/// count.
void RowToTuple(const data::Schema& schema,
                const std::vector<double>& numeric_row,
                const std::vector<uint32_t>& category_row, MixedTuple* tuple);

/// Which wire stream kind the pipeline's sessions speak.
enum class WirePreference {
  kAuto,     ///< Numeric streams iff the schema is all-numeric.
  kMixed,    ///< Section IV-C mixed streams (any schema).
  kNumeric,  ///< Algorithm-4 numeric streams (all-numeric schemas only).
};

/// The multi-round collection plan a ServerSession enforces.
struct EpochPlan {
  /// Planned collection rounds; each epoch spends the config's ε per user.
  uint32_t epochs = 1;
  /// Per-user lifetime ε cap across epochs (sequential composition). 0
  /// means "exactly the plan": epochs × ε.
  double lifetime_budget = 0.0;
};

/// Everything that defines one collection deployment.
struct PipelineConfig {
  /// The attribute schema of the tuples being collected.
  std::vector<MixedAttribute> attributes;
  /// The per-epoch privacy budget every user enjoys.
  double epsilon = 1.0;
  /// Scalar mechanism for numeric attributes (HM in the paper).
  MechanismKind mechanism = MechanismKind::kHybrid;
  /// Frequency oracle for categorical attributes (OUE in the paper).
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  /// Wire stream kind for the client/server sessions.
  WirePreference wire = WirePreference::kAuto;
  /// When set, Collect runs the split-budget baseline of Section VI-A
  /// instead of the paper's sampled collector. Baseline configs are
  /// simulation-only: they have no wire protocol, so NewClient / NewServer
  /// fail.
  std::optional<NumericStrategy> baseline;
  /// Multi-epoch plan enforced by ServerSession's PrivacyAccountant.
  EpochPlan plan;

  /// Convenience: a config whose attributes mirror `schema`'s columns.
  static Result<PipelineConfig> FromSchema(const data::Schema& schema,
                                           double epsilon);
};

/// Per-epoch estimates a ServerSession serves (the server-side counterpart
/// of CollectionOutput, without ground truth).
struct PipelineEstimates {
  /// Attribute indices, in schema order.
  std::vector<uint32_t> numeric_attributes;
  std::vector<uint32_t> categorical_attributes;
  /// Estimated means, parallel to numeric_attributes.
  std::vector<double> means;
  /// Estimated frequencies, parallel to categorical_attributes.
  std::vector<std::vector<double>> frequencies;
  /// Reports the estimates are computed over.
  uint64_t num_reports = 0;
};

/// The client half of a pipeline: perturbs one user's row on her device and
/// encodes nothing but the privatized report. Copyable and cheap; one
/// session may be shared across threads, with one Rng per thread.
class ClientSession {
 public:
  /// The stream header every shard written by this client must start with.
  stream::StreamHeader header() const;

  /// The serialized header bytes (convenience for callers framing by hand).
  std::string EncodeHeader() const;

  /// The client's encoder: perturbs one full row and appends it to `out` as
  /// one length-prefixed frame, written in place — a placeholder length,
  /// the payload, then the length patched in. No report object or
  /// temporary row is built, and nothing is allocated once `out` has
  /// MaxReportBytes() of spare capacity. Numeric coordinates must be in
  /// [-1, 1], categorical ones within their domains. Fails, leaving `out`
  /// as it was, on a row of the wrong size or a frame above
  /// stream::kMaxFrameBytes (InvalidArgument, as stream::AppendFrame).
  Status AppendReport(const MixedTuple& row, Rng* rng, std::string* out) const;

  /// Pure-numeric overload: one value per attribute. Fails on schemas with
  /// categorical attributes.
  Status AppendReport(const std::vector<double>& row, Rng* rng,
                      std::string* out) const;

  /// The most bytes one AppendReport call appends, length prefix included.
  size_t MaxReportBytes() const;

  /// AppendReport's payload as a string of its own (no length prefix; pair
  /// with stream::AppendFrame or ReportStreamWriter): the same draws and
  /// bytes. It perturbs into a reused per-thread buffer and returns one
  /// exact-size copy, so the copy is its only allocation.
  Result<std::string> EncodeReport(const MixedTuple& row, Rng* rng) const;
  Result<std::string> EncodeReport(const std::vector<double>& row,
                                   Rng* rng) const;

  /// Perturbs `row` and appends it to `writer` as one frame, through the
  /// same per-thread buffer as EncodeReport.
  Status WriteReport(stream::ReportStreamWriter* writer, const MixedTuple& row,
                     Rng* rng) const;
  Status WriteReport(stream::ReportStreamWriter* writer,
                     const std::vector<double>& row, Rng* rng) const;

  /// The stream kind reports are encoded as.
  stream::ReportStreamKind stream_kind() const;

  /// The number of attributes each report carries (Eq. 12).
  uint32_t k() const;

  uint32_t dimension() const;

 private:
  friend class Pipeline;
  explicit ClientSession(
      std::shared_ptr<const internal_api::PipelineState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const internal_api::PipelineState> state_;
};

class ServerSession;
struct ServerSessionOptions;

/// The session facade. Copyable (copies share the immutable protocol
/// objects); all methods are const and thread-safe.
class Pipeline {
 public:
  /// Validates `config` and builds the protocol objects. Fails on an empty
  /// schema, a bad budget, a categorical attribute with fewer than 2 values,
  /// an all-categorical schema asked for numeric streams, or a zero-epoch
  /// plan.
  static Result<Pipeline> Create(PipelineConfig config);

  /// Runs the configured collection in process over `dataset`, whose numeric
  /// columns must already be normalised to [-1, 1] (see
  /// data::NormalizeNumeric) and whose column types must match the config's
  /// attributes. Deterministic in `seed`; `pool` optionally shards users
  /// across threads (results then depend on the pool's thread count as chunk
  /// summation order differs).
  Result<CollectionOutput> Collect(const data::Dataset& dataset, uint64_t seed,
                                   ThreadPool* pool = nullptr) const;

  /// Builds a client session. Fails for baseline configs (no wire protocol).
  Result<ClientSession> NewClient() const;

  /// Builds a server session owning its own epoch state and accountant.
  /// Fails for baseline configs, or when the lifetime budget cannot afford
  /// the first epoch. Callers must include api/server_session.h (it
  /// completes the ServerSession type these signatures name).
  Result<ServerSession> NewServer() const;
  Result<ServerSession> NewServer(ServerSessionOptions options) const;

  /// The validated configuration.
  const PipelineConfig& config() const;

  /// The resolved wire stream kind.
  stream::ReportStreamKind stream_kind() const;

  /// The stream header sessions of this pipeline exchange.
  const stream::StreamHeader& header() const;

  double epsilon() const;
  uint32_t dimension() const;

  /// The number of attributes each user reports (Eq. 12).
  uint32_t k() const;

  /// The Section IV-C collector behind mixed sessions (always present; on
  /// numeric pipelines it backs Collect, whose estimates are bit-identical
  /// to the numeric stream path).
  const MixedTupleCollector& mixed_collector() const;

  /// The Algorithm-4 mechanism behind numeric sessions; null on mixed
  /// pipelines.
  const SampledNumericMechanism* numeric_mechanism() const;

 private:
  explicit Pipeline(std::shared_ptr<const internal_api::PipelineState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const internal_api::PipelineState> state_;
};

namespace internal_api {

/// The immutable protocol objects one Pipeline and all its sessions share.
/// Internal: reach the contents through the Pipeline accessors.
struct PipelineState {
  PipelineConfig config;
  stream::ReportStreamKind kind = stream::ReportStreamKind::kMixed;
  /// Always engaged (backs mixed sessions and Collect).
  std::optional<MixedTupleCollector> collector;
  /// Engaged when kind == kSampledNumeric.
  std::optional<SampledNumericMechanism> numeric;
  stream::StreamHeader header;
  /// The resolved per-user lifetime budget (plan.lifetime_budget, or
  /// epochs × ε when unset).
  double lifetime_budget = 0.0;
};

}  // namespace internal_api

}  // namespace ldp::api

#endif  // LDP_API_PIPELINE_H_
