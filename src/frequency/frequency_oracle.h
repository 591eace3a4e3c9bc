// Frequency oracles: ε-LDP primitives for a single categorical attribute.
//
// A frequency oracle lets each user submit a randomized report about her
// value v ∈ {0, ..., k-1} such that the aggregator can estimate the frequency
// of every value over the population, while each individual report satisfies
// ε-LDP. This is the categorical counterpart of core/mechanism.h and the
// plug-in point of the paper's Section IV-C: the mixed-attribute collector
// routes each sampled categorical attribute through an oracle at budget ε/k.
//
// The protocol is split into the client half (PerturbInto) and the server
// half (ValidateView + AccumulateView + Estimate) so that simulation
// harnesses can route reports through arbitrary collection topologies. Both
// halves work on the wire form: the client appends a report's little-endian
// words to the frame it is writing, and the server reads them where they
// arrived (ReportView), so neither side copies a payload; the concrete
// oracle classes define these rules inline and final, so a caller holding
// the concrete type gets them inlined. All four oracles from the
// literature are provided: GRR (generalized randomized response), SUE (basic
// RAPPOR), OUE (optimized unary encoding — the paper's choice), and OLH
// (optimized local hashing).

#ifndef LDP_FREQUENCY_FREQUENCY_ORACLE_H_
#define LDP_FREQUENCY_FREQUENCY_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/little_endian.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp {

/// Identifies a frequency oracle; used by factories and configs.
enum class FrequencyOracleKind {
  kGrr,  ///< Generalized randomized response (k-RR).
  kSue,  ///< Symmetric unary encoding (basic one-round RAPPOR).
  kOue,  ///< Optimized unary encoding (Wang et al., USENIX Sec. 2017).
  kOlh,  ///< Optimized local hashing (Wang et al., USENIX Sec. 2017).
  kHe,   ///< Histogram encoding: noisy one-hot vector (summation variant).
  kThe,  ///< Histogram encoding with thresholding.
};

/// Human-readable oracle name ("GRR", "SUE", "OUE", "OLH", "HE", "THE").
const char* FrequencyOracleKindToString(FrequencyOracleKind kind);

/// A read-only view of one oracle report's payload as it sits in a wire
/// frame: `size` little-endian uint32 words at `bytes`, with no alignment
/// assumed. The server validates and accumulates reports through this view,
/// straight from the received bytes, without copying them into a Report.
class ReportView {
 public:
  ReportView(const char* bytes, size_t size) : bytes_(bytes), size_(size) {}

  size_t size() const { return size_; }

  uint32_t operator[](size_t i) const {
    return internal_wire::LoadLittleEndian<uint32_t>(bytes_ + 4 * i);
  }

 private:
  const char* bytes_;
  size_t size_;
};

/// An ε-LDP randomizer for one categorical value with domain {0, ..., k-1}.
///
/// Thread-safety: instances are immutable after construction; PerturbInto
/// only mutates the caller-supplied Rng and buffer, so one instance may be
/// shared across threads as long as each thread owns its Rng.
class FrequencyOracle {
 public:
  /// A single user's privatized report. The encoding is oracle-specific
  /// (GRR: one perturbed value; SUE/OUE: indices of set bits; OLH: packed
  /// 64-bit hash seed plus one hashed value) and only meaningful to the
  /// oracle that produced it.
  using Report = std::vector<uint32_t>;

  virtual ~FrequencyOracle() = default;

  /// The randomizer: produces the privatized report for true value `value`
  /// (< domain_size) and appends it to `out` in the wire form ReportView
  /// reads — a little-endian u16 word count, then the little-endian u32
  /// words. The count is exact for reports of at most UINT16_MAX words,
  /// which MixedTupleCollector::Create guarantees by refusing any oracle
  /// whose MaxReportSize() is larger. Allocates nothing once `out` has the
  /// capacity (2 + 4 · MaxReportSize() bytes suffice).
  virtual void PerturbInto(uint32_t value, Rng* rng,
                           std::string* out) const = 0;

  /// PerturbInto as an in-memory Report: the same draws and the same words
  /// (read back by length, so any domain size works). For simulations and
  /// tests; the wire path writes with PerturbInto directly.
  Report Perturb(uint32_t value, Rng* rng) const;

  /// Checks that `report` is structurally valid for this oracle — the shape
  /// and value ranges Perturb can actually emit — so that AccumulateView
  /// cannot index out of bounds or double-count. This is the server-side
  /// guard for reports arriving over the wire (core/wire.h runs it on every
  /// categorical entry of a frame); it does not (and cannot) detect a lying
  /// client whose report is merely improbable. Returns null when valid, else
  /// a static rejection message (no Status is built on the accept path).
  virtual const char* ValidateView(ReportView report) const = 0;

  /// Folds one report into per-value support counts: `support` points at
  /// domain_size() entries; entry v counts reports consistent with value v
  /// (HE adds its fixed-point component instead). Supports are integers, so
  /// accumulating and merging them is exact in any order. The report must
  /// have passed ValidateView (reports produced by Perturb always do).
  virtual void AccumulateView(ReportView report, uint64_t* support) const = 0;

  /// ValidateView over an in-memory report, as a Status (InvalidArgument
  /// carrying the rejection message).
  Status ValidateReport(const Report& report) const;

  /// AccumulateView over an in-memory report; `support` must have
  /// domain_size() entries.
  void Accumulate(const Report& report, std::vector<uint64_t>* support) const;

  /// Turns support counts over `num_reports` reports into unbiased frequency
  /// estimates, one per domain value. Estimates may fall outside [0, 1];
  /// see FrequencyEstimator for clamping / simplex projection.
  virtual std::vector<double> Estimate(const std::vector<uint64_t>& support,
                                       uint64_t num_reports) const = 0;

  /// Variance of a single value's frequency estimate when its true frequency
  /// is `f` and `num_reports` reports were collected.
  virtual double EstimateVariance(double f, uint64_t num_reports) const = 0;

  /// Upper bound on the payload length ValidateView can accept (and Perturb
  /// can emit). The wire decoder rejects longer payloads before reading a
  /// single element, so a hostile length costs no parse work beyond the
  /// oracle's own maximum. Defaults to the domain size (unary and histogram
  /// encodings); constant-size oracles override it.
  virtual size_t MaxReportSize() const { return domain_size_; }

  /// Short oracle name for reports.
  virtual const char* name() const = 0;

  /// The privacy budget this instance was built with.
  double epsilon() const { return epsilon_; }

  /// The categorical domain size k.
  uint32_t domain_size() const { return domain_size_; }

 protected:
  FrequencyOracle(double epsilon, uint32_t domain_size)
      : epsilon_(epsilon), domain_size_(domain_size) {}

  /// PerturbInto helpers for reports whose length is only known once
  /// written: BeginReport reserves the u16 count and returns its offset,
  /// EndReport patches in the number of words appended since.
  static size_t BeginReport(std::string* out) {
    const size_t count_at = out->size();
    internal_wire::PutU16(out, 0);
    return count_at;
  }
  static void EndReport(size_t count_at, std::string* out) {
    internal_wire::StoreLittleEndian(
        &(*out)[count_at],
        static_cast<uint16_t>((out->size() - count_at - 2) / 4));
  }

  /// The words of one report written by PerturbInto into `wire` (from
  /// offset 0), read back by length.
  static Report WordsOf(const std::string& wire);

 private:
  double epsilon_;
  uint32_t domain_size_;
};

/// Creates an oracle of the given kind. Returns InvalidArgument for a
/// non-positive/non-finite budget or a domain with fewer than 2 values.
Result<std::unique_ptr<FrequencyOracle>> MakeFrequencyOracle(
    FrequencyOracleKind kind, double epsilon, uint32_t domain_size);

namespace internal_frequency {

/// Debiases per-value support counts for an oracle where a report supports
/// the user's true value with probability p and any other fixed value with
/// probability q: f̂_v = (support_v / n - q) / (p - q).
std::vector<double> DebiasSupportCounts(const std::vector<uint64_t>& support,
                                        uint64_t num_reports, double p,
                                        double q);

/// Variance of the debiased estimator above at true frequency f:
/// μ(1-μ) / (n (p-q)²) with μ = f p + (1-f) q.
double SupportEstimateVariance(double f, uint64_t num_reports, double p,
                               double q);

}  // namespace internal_frequency

}  // namespace ldp

#endif  // LDP_FREQUENCY_FREQUENCY_ORACLE_H_
