// Sharded control-plane scheduler: one RequestScheduler per panel partition
// behind a thin router, plus an O(1)-amortized donor index for work stealing.
//
// The shards share one PlatterQueues table (platter -> group, group pool,
// request-node pool): a platter's queue lives in exactly one shard at a time,
// so one table serves every shard instead of P platter-indexed arrays (P x
// platters x 4 B of randomly accessed memory at hundreds of partitions).
// Moving a platter between shards (MigrateQueue) just re-tags its group's
// owner.
//
// The library twin used to keep a bare vector of RequestScheduler instances and,
// every time a partition went idle, scan *all* partitions for steal donors —
// an O(P) sweep with a vector allocation and a sort per idle partition, so one
// event cost O(P^2) at hundreds of shuttles. This wrapper routes every queue
// mutation (Submit / TakeRequests / TakeFront / Requeue / MigrateQueue) through
// itself so it can maintain a lazy-deletion max-heap of (queued bytes, shard)
// donor candidates on the side: finding the most-loaded donors is then a few
// heap pops instead of a full scan, and the common no-donor case exits after
// inspecting a single heap entry.
//
// Determinism contract (pinned by tests/sharded_scheduler_test.cc and the
// sharded differential in tests/scheduler_equivalence_test.cc): with one
// shard, every operation is byte-identical to a bare RequestScheduler; with N
// shards, every shard selects exactly what a bare scheduler holding the same
// queues would, and ForEachDonor enumerates exactly the shards with queued
// bytes > 0 in (bytes descending, shard descending) order — the same order the
// replaced scan-and-sort produced — regardless of how many stale heap entries
// have accumulated. Heap compaction is driven purely by entry counts, never by
// wall-clock state, so it cannot perturb the event order.
#ifndef SILICA_CORE_SHARDED_SCHEDULER_H_
#define SILICA_CORE_SHARDED_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/request.h"
#include "core/request_scheduler.h"

namespace silica {

class StateReader;
class StateWriter;
struct Telemetry;

class ShardedScheduler {
 public:
  ShardedScheduler() = default;
  // The shards point into queues_, so the router stays put.
  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  // (Re)builds the router with `num_shards` empty shards over one table
  // pre-sized for `num_platters` dense platter ids.
  void Init(int num_shards, uint64_t num_platters);

  int size() const { return static_cast<int>(shards_.size()); }

  // Routed queue operations. The caller owns the platter -> shard map (the
  // partitioner); every mutation lands here so the donor index stays current.
  void Submit(int shard, const ReadRequest& request);
  void Requeue(int shard, const ReadRequest& request);
  // Drains the platter's whole group.
  std::vector<ReadRequest> TakeRequests(int shard, uint64_t platter);
  // Pops the platter's oldest request into `out` (the per-read serve path).
  bool TakeFront(int shard, uint64_t platter, ReadRequest* out);

  template <typename Accessible>
  std::optional<uint64_t> SelectPlatter(int shard,
                                        Accessible&& accessible) const {
    return shards_[static_cast<size_t>(shard)].SelectPlatter(
        std::forward<Accessible>(accessible));
  }
  bool HasRequests(int shard, uint64_t platter) const {
    return shards_[static_cast<size_t>(shard)].HasRequests(platter);
  }
  uint64_t queued_bytes(int shard) const {
    return shards_[static_cast<size_t>(shard)].total_queued_bytes();
  }
  uint64_t total_queued_bytes() const;
  size_t pending_requests() const;

  // Moves every queued request for `platter` from shard `from` to shard `to`
  // (dynamic repartitioning) by handing over its group: arrival order is
  // untouched and the cost is independent of the queue length. Returns the
  // number of requests moved.
  size_t MigrateQueue(uint64_t platter, int from, int to);

  // Publishes each shard's gauges under its shard index; nullptr detaches.
  void SetTelemetry(Telemetry* telemetry);

  // Enumerates steal-donor candidates in (queued bytes descending, shard
  // descending) order — exactly the order `sort(donors.rbegin(), donors.rend())`
  // gave the replaced full scan. `fn(bytes, shard)` returns false to stop the
  // enumeration (donor accepted). Shard `thief` is skipped. Unless `scan_all`,
  // enumeration stops at the first candidate with bytes <= `cut_bytes`: the heap
  // order guarantees nothing further can exceed the threshold. Callers pass
  // scan_all = true only while distressed partitions (stealable below the
  // threshold) exist, which keeps the common case at one heap inspection.
  template <typename Fn>
  void ForEachDonor(int thief, uint64_t cut_bytes, bool scan_all, Fn&& fn) {
    ++epoch_;
    scratch_.clear();
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end());
      const Entry entry = heap_.back();
      heap_.pop_back();
      scratch_.push_back(entry);
      const size_t shard = static_cast<size_t>(entry.second);
      if (entry.first != shards_[shard].total_queued_bytes() ||
          seen_epoch_[shard] == epoch_) {
        continue;  // stale bytes snapshot, or shard already visited
      }
      seen_epoch_[shard] = epoch_;
      if (!scan_all && entry.first <= cut_bytes) {
        break;  // max-order: no later entry can clear the threshold
      }
      if (entry.second == thief) {
        continue;
      }
      if (!fn(entry.first, entry.second)) {
        break;
      }
    }
    for (const Entry& entry : scratch_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  // Cross-sweep accessibility memo. A shard whose SelectPlatter came back
  // empty stays empty until either its queue changes (tracked here, in
  // NoteBytesChanged) or some platter becomes accessible again (returned to
  // storage, dark bit cleared — the caller reports those via
  // ClearScanMemos). Callers use the memo to skip provably fruitless
  // SelectPlatter walks over large backlogged queues, which is what keeps the
  // per-sweep steal scan O(1) at hundreds of mostly-idle partitions.
  bool ScanKnownEmpty(int shard) const {
    return scan_failed_[static_cast<size_t>(shard)] != 0;
  }
  void NoteScanFailed(int shard) {
    const size_t s = static_cast<size_t>(shard);
    if (scan_failed_[s] == 0 && shards_[s].total_queued_bytes() > 0) {
      --live_nonzero_;
    }
    scan_failed_[s] = 1;
  }
  void ClearScanMemos() {
    std::fill(scan_failed_.begin(), scan_failed_.end(), 0);
    live_nonzero_ = nonzero_shards_;
    ++mutation_epoch_;
  }
  // Precise form: a platter turning accessible can only change the select
  // outcome of the shard that queues it, so callers that know the platter
  // revive one shard instead of all of them.
  void ClearScanMemo(int shard) {
    const size_t s = static_cast<size_t>(shard);
    if (scan_failed_[s] != 0 && shards_[s].total_queued_bytes() > 0) {
      ++live_nonzero_;
    }
    scan_failed_[s] = 0;
    ++mutation_epoch_;
  }

  // Number of shards with queued bytes > 0 whose scan memo is still clear —
  // i.e. shards where a SelectPlatter walk could plausibly produce a target.
  // When zero (and no returns / scrub / explicit writes are pending), an
  // entire dispatch sweep is a provable no-op: every own-queue select and
  // every steal scan would come back empty.
  int live_nonzero_shards() const { return live_nonzero_; }

  // Bumped on every change that can turn a fruitless scan fruitful: queue
  // mutations and scan-memo revivals. Callers that cache negative scan
  // results across sweeps (the library's steal-cut memo) compare epochs to
  // decide whether the cached failure still holds. Memo *sets* deliberately
  // do not bump it — recording that a select failed cannot make one succeed.
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  // Checkpoint/restore: serializes the shared table, every shard's physical
  // state, and the donor heap, scan memos, and epochs verbatim — donor
  // enumeration order and memo validity are behavior, so they must replay
  // exactly. Requires a router Init()ed with the same shard count before
  // LoadState.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  // (queued bytes, shard): max-heap entries for most-loaded-first enumeration.
  using Entry = std::pair<uint64_t, int>;

  // Records a bytes change on `shard`: pushes a fresh donor entry (when the
  // shard still has queued work) and maintains the nonzero-shard count that
  // drives compaction.
  void NoteBytesChanged(int shard, uint64_t before);
  void CompactHeapIfNeeded();

  PlatterQueues queues_;  // one platter table for every shard
  std::vector<RequestScheduler> shards_;
  std::vector<Entry> heap_;     // lazy-deletion max-heap of donor candidates
  std::vector<Entry> scratch_;  // popped-entry parking during enumeration
  std::vector<uint64_t> seen_epoch_;  // per shard: last enumeration that saw it
  std::vector<uint8_t> scan_failed_;  // per shard: SelectPlatter known empty
  uint64_t epoch_ = 0;
  int nonzero_shards_ = 0;  // shards with queued bytes > 0 (compaction bound)
  int live_nonzero_ = 0;    // nonzero shards with a clear scan memo
  uint64_t mutation_epoch_ = 0;  // bumped on scan-relevant state changes
};

}  // namespace silica

#endif  // SILICA_CORE_SHARDED_SCHEDULER_H_
