// Cooperative per-refresh deadline: the watchdog half of the long-running
// service story. A Deadline is armed before a refresh and checked by the
// ∆-script VM at every fault site (each ∆-script step entry and each
// APPLY). An expired check returns kDeadlineExceeded, which fails the
// epoch exactly like any other recoverable error: the epoch rolls back and
// the degradation ladder takes over (retry single-threaded → recompute →
// quarantine) — a stalled or overlong refresh degrades instead of hanging
// the service.
//
// The first expired check after each Arm increments
// idivm_refresh_deadline_trips_total (one trip per armed deadline, however
// many sites observe it afterwards).

#ifndef IDIVM_ROBUST_DEADLINE_H_
#define IDIVM_ROBUST_DEADLINE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/robust/status.h"

namespace idivm::robust {

// Thread-safe: armed by the service thread, checked from every maintenance
// worker. A default-constructed Deadline never expires.
class Deadline {
 public:
  Deadline() = default;
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  // Arms the deadline `seconds` from now (steady clock) and clears the
  // tripped latch. seconds <= 0 disarms.
  void Arm(double seconds);

  // Force-expires an armed deadline immediately (external watchdog hook).
  void Trip();

  // True when armed and past due (or tripped).
  bool Expired() const;

  // OK while unexpired; kDeadlineExceeded naming `site` once expired. The
  // first expired check after an Arm counts one deadline trip.
  Status Check(const std::string& site);

  // Deadlines tripped since construction (at most one per Arm).
  int64_t trips() const { return trips_.load(std::memory_order_relaxed); }

 private:
  // Steady-clock nanosecond deadline; 0 = disarmed, 1 = force-tripped.
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<bool> tripped_{false};
  std::atomic<int64_t> trips_{0};
};

}  // namespace idivm::robust

#endif  // IDIVM_ROBUST_DEADLINE_H_
