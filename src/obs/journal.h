// Bounded ring-buffer campaign event journal. Control-plane events — shard
// lifecycle, HELLO accept/refuse, epoch advance, merge enter/exit,
// accountant refusals — are rare (per shard / per epoch, never per report),
// so a mutex-protected ring is plenty; the data path never records events.
// Each event carries both a wall-clock timestamp (for correlating with
// external logs) and a steady-clock timestamp (for exact intervals and
// Chrome trace_event rendering). When the ring is full the oldest event is
// overwritten and `dropped()` counts what was lost, so a long campaign can
// run forever with bounded memory and still journal its recent history.

#ifndef LDP_OBS_JOURNAL_H_
#define LDP_OBS_JOURNAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ldp::obs {

enum class EventKind : uint8_t {
  kShardOpen,
  kShardClose,
  kShardAbandon,
  kHelloAccept,
  kHelloRefuse,
  kEpochAdvance,
  kAccountantRefuse,
  kMergeEnter,
  kMergeExit,
  kServerStart,
  kServerStop,
  kSnapshotForward,
  kSnapshotAccept,
  kSnapshotRefuse,
  kRelayFold,
  kWalReplay,
  kWalCorrupt,
  kAuthRefuse,
};

const char* EventKindToString(EventKind kind);

/// One journaled event. `a` and `b` are kind-specific small integers:
/// shard events carry (shard, epoch), HELLO and merge events carry
/// (ordinal, 0), epoch events carry (epoch, 0).
struct Event {
  EventKind kind = EventKind::kShardOpen;
  int64_t wall_ns = 0;    ///< Unix-epoch nanoseconds at record time.
  uint64_t steady_ns = 0; ///< Monotonic nanoseconds at record time.
  uint64_t a = 0;
  uint64_t b = 0;
};

/// Fixed-capacity overwrite-oldest event ring. Thread-safe.
class EventJournal {
 public:
  /// `capacity` is clamped to at least 16 events.
  explicit EventJournal(size_t capacity = 8192);

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  void Record(EventKind kind, uint64_t a = 0, uint64_t b = 0);

  /// Retained events, oldest first.
  std::vector<Event> Events() const;

  /// Total events ever recorded (retained + overwritten).
  uint64_t recorded() const;

  /// Events lost to ring overwrite.
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

  /// One JSON object per line:
  /// {"event":"shard_close","wall_ns":...,"steady_us":...,"a":3,"b":0}
  /// steady_us is relative to the journal's construction.
  std::string ToJsonLines() const;

  /// Chrome trace_event JSON (load via chrome://tracing or Perfetto):
  /// instant events, ts in microseconds since journal construction.
  std::string ToChromeTrace() const;

 private:
  const size_t capacity_;
  const uint64_t origin_steady_ns_;  // construction time, trace epoch
  mutable std::mutex mutex_;
  std::vector<Event> ring_;
  size_t next_ = 0;         // ring slot the next event lands in
  uint64_t recorded_ = 0;
};

}  // namespace ldp::obs

#endif  // LDP_OBS_JOURNAL_H_
