// In-path fault injection for the maintenance engine — the execution-time
// counterpart of persist::FaultFile (which corrupts bytes at rest). The
// Maintainer calls FaultInjector::Check at every fault site on the hot
// path: each rule boundary (script step entry), each APPLY, and the
// recompute fallback — from whichever worker thread reaches the site.
// Sites are numbered in arrival order by an atomic counter, so a
// deterministic plan ("fire at site k") drives chaos_maintain_test through
// every reachable failure point, and a seeded rate plan exercises random
// fault storms reproducibly.

#ifndef IDIVM_ROBUST_FAULT_INJECTION_H_
#define IDIVM_ROBUST_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "src/robust/status.h"

namespace idivm {

struct FaultPlan {
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  // Deterministic mode: fire at every site whose arrival index is
  // >= fire_at_site, until max_fires faults have fired. max_fires = 1
  // kills exactly one site (the retry rung then succeeds); larger values
  // keep failing subsequent sites, driving the ladder deeper (retry →
  // recompute → quarantine).
  uint64_t fire_at_site = kNever;

  // Probabilistic mode: fire at each site independently with this
  // probability, decided by a hash of (seed, site index) — deterministic
  // for a given seed regardless of thread interleaving of site indices.
  double rate = 0.0;
  uint64_t seed = 0;

  // Total faults this plan may fire (both modes).
  int64_t max_fires = 1;
};

// Thread-safe; one instance is shared by every view of a parallel refresh. A
// default-constructed injector never fires but still counts sites, which
// is how tests enumerate the fault surface of a script.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  // Re-arms with a new plan and resets counters.
  void Reset(const FaultPlan& plan);

  // One fault site. Returns kInjectedFault (naming the site) when the plan
  // says this site fails, OK otherwise.
  Status Check(const std::string& site);

  // Sites visited since construction / Reset (fired or not).
  uint64_t sites_visited() const { return sites_.load(); }
  // Faults fired since construction / Reset.
  int64_t faults_fired() const { return fired_.load(); }

 private:
  FaultPlan plan_;
  std::atomic<uint64_t> sites_{0};
  std::atomic<int64_t> fired_{0};
};

}  // namespace idivm

#endif  // IDIVM_ROBUST_FAULT_INJECTION_H_
