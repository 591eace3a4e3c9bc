#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace ldp::obs {

namespace {

// C++17 stand-ins for std::bit_cast / std::bit_width.
uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

unsigned BitWidth(uint64_t value) {
  unsigned width = 0;
  while (value != 0) {
    ++width;
    value >>= 1;
  }
  return width;
}

}  // namespace

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

unsigned Counter::ThreadShard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

void Gauge::Set(double value) {
  bits_.store(DoubleBits(value), std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t desired = DoubleBits(BitsDouble(observed) + delta);
    if (bits_.compare_exchange_weak(observed, desired,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double Gauge::Value() const {
  return BitsDouble(bits_.load(std::memory_order_relaxed));
}

unsigned Histogram::BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  return std::min(BitWidth(value), kBuckets - 1);
}

uint64_t Histogram::UpperBound(unsigned b) {
  LDP_CHECK(b < kBuckets);
  if (b + 1 >= kBuckets) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << b) - 1;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (unsigned b = 0; b < kBuckets; ++b) total += BucketCount(b);
  return total;
}

double Histogram::Quantile(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    counts[b] = BucketCount(b);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based, clamped to the population.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.5));
  uint64_t cumulative = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (cumulative + counts[b] >= std::min(rank, total)) {
      // Interpolate linearly inside the bucket by rank position.
      const double lower = b == 0 ? 0.0
                                  : static_cast<double>(uint64_t{1} << (b - 1));
      const double upper =
          b == 0 ? 0.0
                 : (b + 1 >= kBuckets
                        ? lower * 2.0  // overflow bucket: report its floor*2
                        : static_cast<double>(uint64_t{1} << b));
      const double fraction =
          static_cast<double>(std::min(rank, total) - cumulative) /
          static_cast<double>(counts[b]);
      return lower + (upper - lower) * fraction;
    }
    cumulative += counts[b];
  }
  return 0.0;
}

MetricsRegistry::Entry* MetricsRegistry::GetOrCreate(const std::string& name,
                                                     const LabelSet& labels,
                                                     MetricType type) {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[{name, std::move(sorted)}];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr) {
    entry.type = type;
    switch (type) {
      case MetricType::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  LDP_CHECK_MSG(entry.type == type,
                "metric re-registered with a different type");
  return &entry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  return GetOrCreate(name, labels, MetricType::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  return GetOrCreate(name, labels, MetricType::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const LabelSet& labels) {
  return GetOrCreate(name, labels, MetricType::kHistogram)->histogram.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSample sample;
    sample.name = key.first;
    sample.labels = key.second;
    sample.type = entry.type;
    switch (entry.type) {
      case MetricType::kCounter:
        sample.counter = entry.counter->Value();
        break;
      case MetricType::kGauge:
        sample.gauge = entry.gauge->Value();
        break;
      case MetricType::kHistogram: {
        sample.buckets.resize(Histogram::kBuckets);
        uint64_t count = 0;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
          sample.buckets[b] = entry.histogram->BucketCount(b);
          count += sample.buckets[b];
        }
        sample.count = count;
        sample.sum = entry.histogram->Sum();
        break;
      }
    }
    samples.push_back(std::move(sample));
  }
  return samples;  // std::map iteration order == (name, labels) order
}

IngestMetrics IngestMetrics::ForRegistry(MetricsRegistry* registry) {
  IngestMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.bytes = registry->GetCounter("ldp_ingest_bytes_total");
  metrics.frames = registry->GetCounter("ldp_ingest_frames_total");
  metrics.accepted = registry->GetCounter("ldp_ingest_reports_accepted_total");
  metrics.rejected = registry->GetCounter("ldp_ingest_reports_rejected_total");
  return metrics;
}

SessionMetrics SessionMetrics::ForRegistry(MetricsRegistry* registry) {
  SessionMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.shards_opened =
      registry->GetCounter("ldp_session_shards_opened_total");
  metrics.shards_closed =
      registry->GetCounter("ldp_session_shards_closed_total");
  metrics.shards_abandoned =
      registry->GetCounter("ldp_session_shards_abandoned_total");
  metrics.epochs_opened =
      registry->GetCounter("ldp_session_epochs_opened_total");
  metrics.budget_refusals =
      registry->GetCounter("ldp_session_budget_refusals_total");
  metrics.pending_feed_bytes =
      registry->GetGauge("ldp_session_pending_feed_bytes");
  metrics.epsilon_spent = registry->GetGauge("ldp_session_epsilon_spent");
  metrics.backpressure_wait_us =
      registry->GetHistogram("ldp_session_backpressure_wait_us");
  metrics.close_wait_us = registry->GetHistogram("ldp_session_close_wait_us");
  return metrics;
}

RelayMetrics RelayMetrics::ForRegistry(MetricsRegistry* registry) {
  RelayMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.snapshots_forwarded =
      registry->GetCounter("ldp_relay_snapshots_forwarded_total");
  metrics.forward_failures =
      registry->GetCounter("ldp_relay_forward_failures_total");
  metrics.reconnects =
      registry->GetCounter("ldp_relay_upstream_reconnects_total");
  metrics.bytes_forwarded =
      registry->GetCounter("ldp_relay_bytes_forwarded_total");
  metrics.forward_us = registry->GetHistogram("ldp_relay_forward_us");
  return metrics;
}

WalMetrics WalMetrics::ForRegistry(MetricsRegistry* registry) {
  WalMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.records = registry->GetCounter("ldp_wal_records_total");
  metrics.bytes = registry->GetCounter("ldp_wal_bytes_total");
  metrics.replayed_frames =
      registry->GetCounter("ldp_wal_replayed_frames_total");
  metrics.replayed_bytes = registry->GetCounter("ldp_wal_replayed_bytes_total");
  metrics.replayed_shards =
      registry->GetCounter("ldp_wal_replayed_shards_total");
  metrics.resumed_shards = registry->GetCounter("ldp_wal_resumed_shards_total");
  metrics.torn_tails = registry->GetCounter("ldp_wal_torn_tails_total");
  metrics.corrupt_shards = registry->GetCounter("ldp_wal_corrupt_shards_total");
  metrics.append_us = registry->GetHistogram("ldp_wal_append_us");
  return metrics;
}

NetServerMetrics NetServerMetrics::ForRegistry(MetricsRegistry* registry) {
  NetServerMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.connections = registry->GetCounter("ldp_net_connections_total");
  metrics.hello_accepted =
      registry->GetCounter("ldp_net_hello_accepted_total");
  metrics.hello_refused = registry->GetCounter("ldp_net_hello_refused_total");
  metrics.hello_unauthenticated =
      registry->GetCounter("ldp_net_hello_unauthenticated_total");
  metrics.data_messages = registry->GetCounter("ldp_net_data_messages_total");
  metrics.reads = registry->GetCounter("ldp_net_reads_total");
  metrics.slow_loris_reaped =
      registry->GetCounter("ldp_net_slow_loris_reaped_total");
  metrics.protocol_errors =
      registry->GetCounter("ldp_net_protocol_errors_total");
  metrics.shards_merged = registry->GetCounter("ldp_net_shards_merged_total");
  metrics.shards_discarded =
      registry->GetCounter("ldp_net_shards_discarded_total");
  metrics.shards_abandoned =
      registry->GetCounter("ldp_net_shards_abandoned_total");
  metrics.snapshots_accepted =
      registry->GetCounter("ldp_net_snapshots_accepted_total");
  metrics.snapshots_stale =
      registry->GetCounter("ldp_net_snapshots_stale_total");
  metrics.snapshots_refused =
      registry->GetCounter("ldp_net_snapshots_refused_total");
  metrics.data_read_us = registry->GetHistogram("ldp_net_data_read_us");
  return metrics;
}

PoolMetrics PoolMetrics::ForRegistry(MetricsRegistry* registry) {
  PoolMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.queue_depth = registry->GetGauge("ldp_pool_queue_depth");
  metrics.tasks = registry->GetCounter("ldp_pool_tasks_total");
  metrics.task_us = registry->GetHistogram("ldp_pool_task_us");
  return metrics;
}

}  // namespace ldp::obs
