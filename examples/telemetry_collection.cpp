// Telemetry collection: the motivating scenario of the paper's introduction,
// run the way a deployed service actually runs — as a multi-day CAMPAIGN
// against one accounted privacy budget.
//
// A software vendor wants daily telemetry from an install base — session
// length, memory usage, crash count (numeric) plus OS and channel
// (categorical) — without ever seeing any individual's true values. One
// api::Pipeline config drives the whole deployment: every day is one
// ServerSession epoch at budget ε per user, devices perturb their records
// through a ClientSession (only wire frames reach the vendor), and the
// session's PrivacyAccountant enforces the campaign plan — when the lifetime
// budget is spent, the next epoch is refused, no matter how much the product
// team would like another day of data.
//
// Build and run:   ./build/examples/telemetry_collection

#include <cstdio>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/scaler.h"
#include "util/random.h"

namespace {

struct DeviceRecord {
  double session_minutes;  // [0, 720]
  double memory_mb;        // [0, 4096]
  double crash_count;      // [0, 20]
  uint32_t os;             // 0..3: Windows/macOS/Linux/Other
  uint32_t channel;        // 0..2: stable/beta/dev
};

// Day `day` shifts usage slightly so the per-epoch dashboards move.
DeviceRecord SimulateDevice(int day, ldp::Rng* rng) {
  DeviceRecord record;
  // Session length: most sessions short, a long tail of all-day users.
  record.session_minutes =
      std::min(720.0, rng->Exponential(1.0 / (90.0 + 10.0 * day)));
  record.memory_mb = std::min(4096.0, 350.0 + rng->Exponential(1.0 / 400.0));
  record.crash_count =
      std::min(20.0, static_cast<double>(rng->Geometric(0.7)));
  const double os_draw = rng->Uniform01();
  record.os = os_draw < 0.68 ? 0 : os_draw < 0.88 ? 1 : os_draw < 0.97 ? 2 : 3;
  const double channel_draw = rng->Uniform01();
  record.channel = channel_draw < 0.9 ? 0 : channel_draw < 0.97 ? 1 : 2;
  return record;
}

}  // namespace

int main() {
  const int num_devices = 100000;
  const int num_days = 3;
  const double epsilon = 1.0;  // per-user budget per day

  // One config describes the whole campaign: the record schema, the daily
  // budget, and the plan the accountant will enforce.
  ldp::api::PipelineConfig config;
  config.attributes = {ldp::MixedAttribute::Numeric(),
                       ldp::MixedAttribute::Numeric(),
                       ldp::MixedAttribute::Numeric(),
                       ldp::MixedAttribute::Categorical(4),
                       ldp::MixedAttribute::Categorical(3)};
  config.epsilon = epsilon;
  config.plan.epochs = num_days;
  auto pipeline = ldp::api::Pipeline::Create(config);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto client = pipeline.value().NewClient();
  auto server = pipeline.value().NewServer();
  if (!client.ok() || !server.ok()) {
    std::fprintf(stderr, "session setup failed\n");
    return 1;
  }
  ldp::api::ServerSession& session = server.value();

  std::printf("telemetry campaign: %d devices/day, %d days, eps = %g per "
              "day, lifetime budget %g per user\n\n",
              num_devices, num_days, epsilon,
              session.accountant().lifetime_budget());

  // Native domains for the numeric attributes; devices scale to [-1, 1]
  // before perturbing and the vendor scales estimates back.
  const ldp::DomainScaler session_scale =
      ldp::DomainScaler::Create(0.0, 720.0).value();
  const ldp::DomainScaler memory_scale =
      ldp::DomainScaler::Create(0.0, 4096.0).value();
  const ldp::DomainScaler crash_scale =
      ldp::DomainScaler::Create(0.0, 20.0).value();

  ldp::Rng rng(7);
  for (int day = 0; day < num_days; ++day) {
    if (day > 0) {
      const ldp::Status advanced = session.AdvanceEpoch();
      if (!advanced.ok()) {
        std::fprintf(stderr, "day %d refused: %s\n", day,
                     advanced.ToString().c_str());
        return 1;
      }
    }
    const size_t shard = session.OpenShard();
    if (!session.Feed(shard, client.value().EncodeHeader()).ok()) {
      std::fprintf(stderr, "header rejected\n");
      return 1;
    }
    double true_session = 0.0, true_crashes = 0.0;
    std::vector<double> true_os(4, 0.0);
    for (int i = 0; i < num_devices; ++i) {
      const DeviceRecord record = SimulateDevice(day, &rng);
      true_session += record.session_minutes / num_devices;
      true_crashes += record.crash_count / num_devices;
      true_os[record.os] += 1.0 / num_devices;

      ldp::MixedTuple tuple(5);
      tuple[0] = ldp::AttributeValue::Numeric(
          session_scale.ToCanonical(record.session_minutes));
      tuple[1] = ldp::AttributeValue::Numeric(
          memory_scale.ToCanonical(record.memory_mb));
      tuple[2] = ldp::AttributeValue::Numeric(
          crash_scale.ToCanonical(record.crash_count));
      tuple[3] = ldp::AttributeValue::Categorical(record.os);
      tuple[4] = ldp::AttributeValue::Categorical(record.channel);
      // Only this perturbed frame leaves the device.
      std::string frame;
      if (!client.value().AppendReport(tuple, &rng, &frame).ok() ||
          !session.Feed(shard, frame).ok()) {
        std::fprintf(stderr, "report rejected\n");
        return 1;
      }
    }
    if (!session.CloseShard(shard).ok()) {
      std::fprintf(stderr, "shard close failed\n");
      return 1;
    }

    const uint32_t epoch = session.current_epoch();
    std::printf("--- day %d (epoch %u; per-user eps spent so far: %g) ---\n",
                day + 1, epoch, session.epsilon_spent());
    std::printf("  %-18s %10s %10s\n", "metric", "true", "estimated");
    std::printf("  %-18s %10.1f %10.1f\n", "session (min)", true_session,
                session_scale.FromCanonical(
                    session.EstimateMean(0, epoch).value()));
    std::printf("  %-18s %10.2f %10.2f\n", "crashes", true_crashes,
                crash_scale.FromCanonical(
                    session.EstimateMean(2, epoch).value()));
    const char* os_names[] = {"Windows", "macOS", "Linux", "Other"};
    const std::vector<double> os_est =
        session.EstimateFrequencies(3, epoch).value();
    for (int v = 0; v < 4; ++v) {
      std::printf("  %-18s %9.1f%% %9.1f%%\n", os_names[v],
                  100.0 * true_os[v], 100.0 * os_est[v]);
    }
    std::printf("\n");
  }

  // The plan is spent: the accountant refuses a fourth day.
  const ldp::Status extra_day = session.AdvanceEpoch();
  std::printf("day %d request: %s\n", num_days + 1,
              extra_day.ok() ? "granted (bug!)"
                             : extra_day.ToString().c_str());
  std::printf("total per-user eps spent across the campaign: %g of %g\n",
              session.epsilon_spent(),
              session.accountant().lifetime_budget());
  return extra_day.ok() ? 1 : 0;
}
