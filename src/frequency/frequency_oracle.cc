#include "frequency/frequency_oracle.h"

#include <cmath>
#include <utility>

#include "frequency/grr.h"
#include "frequency/histogram_encoding.h"
#include "frequency/olh.h"
#include "frequency/oue.h"
#include "frequency/sue.h"
#include "util/check.h"

namespace ldp {

const char* FrequencyOracleKindToString(FrequencyOracleKind kind) {
  switch (kind) {
    case FrequencyOracleKind::kGrr:
      return "GRR";
    case FrequencyOracleKind::kSue:
      return "SUE";
    case FrequencyOracleKind::kOue:
      return "OUE";
    case FrequencyOracleKind::kOlh:
      return "OLH";
    case FrequencyOracleKind::kHe:
      return "HE";
    case FrequencyOracleKind::kThe:
      return "THE";
  }
  return "unknown";
}

Result<std::unique_ptr<FrequencyOracle>> MakeFrequencyOracle(
    FrequencyOracleKind kind, double epsilon, uint32_t domain_size) {
  if (!(std::isfinite(epsilon) && epsilon > 0.0)) {
    return Status::InvalidArgument("privacy budget must be finite and > 0");
  }
  if (domain_size < 2) {
    return Status::InvalidArgument("categorical domain needs >= 2 values");
  }
  std::unique_ptr<FrequencyOracle> oracle;
  switch (kind) {
    case FrequencyOracleKind::kGrr:
      oracle = std::make_unique<GrrOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kSue:
      oracle = std::make_unique<SueOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kOue:
      oracle = std::make_unique<OueOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kOlh:
      oracle = std::make_unique<OlhOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kHe:
      oracle = std::make_unique<HeOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kThe:
      oracle = std::make_unique<TheOracle>(epsilon, domain_size);
      break;
  }
  if (oracle == nullptr) {
    return Status::InvalidArgument("unknown frequency oracle kind");
  }
  return oracle;
}

namespace {

// The wire (little-endian) view of an in-memory report. Big-endian hosts
// byte-swap the words into `scratch` first.
ReportView WireViewOf(const FrequencyOracle::Report& report,
                      FrequencyOracle::Report* scratch) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  scratch->resize(report.size());
  for (size_t i = 0; i < report.size(); ++i) {
    (*scratch)[i] = __builtin_bswap32(report[i]);
  }
  return ReportView(reinterpret_cast<const char*>(scratch->data()),
                    scratch->size());
#else
  (void)scratch;
  return ReportView(reinterpret_cast<const char*>(report.data()),
                    report.size());
#endif
}

}  // namespace

Status FrequencyOracle::ValidateReport(const Report& report) const {
  Report scratch;
  const char* rejection = ValidateView(WireViewOf(report, &scratch));
  if (rejection != nullptr) return Status::InvalidArgument(rejection);
  return Status::OK();
}

void FrequencyOracle::Accumulate(const Report& report,
                                 std::vector<uint64_t>* support) const {
  LDP_DCHECK(support->size() == domain_size());
  Report scratch;
  AccumulateView(WireViewOf(report, &scratch), support->data());
}

namespace internal_frequency {

std::vector<double> DebiasSupportCounts(const std::vector<uint64_t>& support,
                                        uint64_t num_reports, double p,
                                        double q) {
  std::vector<double> estimates(support.size(), 0.0);
  if (num_reports == 0) return estimates;
  const double n = static_cast<double>(num_reports);
  const double gap = p - q;
  for (size_t v = 0; v < support.size(); ++v) {
    estimates[v] = (static_cast<double>(support[v]) / n - q) / gap;
  }
  return estimates;
}

double SupportEstimateVariance(double f, uint64_t num_reports, double p,
                               double q) {
  if (num_reports == 0) return 0.0;
  const double mu = f * p + (1.0 - f) * q;
  const double gap = p - q;
  return mu * (1.0 - mu) /
         (static_cast<double>(num_reports) * gap * gap);
}

}  // namespace internal_frequency

}  // namespace ldp
