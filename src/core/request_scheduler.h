// The library controller's request scheduler (Section 4.1).
//
// The scheduler keeps a queue ordered on request arrival time plus a structure
// grouping all requests for the same platter. Platter fetch selection is
// work-conserving: the platter with the earliest queued read *among accessible
// platters* is selected, even if an older request exists for a platter that is
// currently inaccessible (being carried, mounted, or obscured). Once a platter is
// mounted, all queued requests for it are serviced, amortizing the fetch.
//
// Hot-path layout: platter groups live in a PlatterQueues table — a flat
// platter-id-indexed slot array (platter ids are dense layout indices), a group
// pool, and a request-node pool threading each group's FIFO as a linked list —
// and earliest-first selection runs on a lazy min-heap of (arrival, platter)
// entries. Submit / TakeFront / TakeRequests / SelectPlatter never allocate
// tree, hash, or per-group nodes once the pools are warm. One table can back
// any number of schedulers (ShardedScheduler's partition shards share one): a
// platter's group lives in exactly one shard at a time, and each group records
// its owning shard so another shard's leftover heap entries read as stale.
//
// Heap entries are lower bounds, not exact keys. Every live group owned by a
// shard has an entry in that shard's heap whose arrival is <= the group's
// front arrival (cached inline in the group). Creation, Requeue to an earlier
// front, and a move between shards push the exact key; taking requests off
// the front only *raises* the front, so the old entry stays a valid lower
// bound and nothing is pushed. When an entry surfaces at the heap top with a
// key below its group's front it is re-keyed (pushed back with the exact key);
// entries whose group is gone, moved away, or whose key exceeds the front are
// dropped. Popping therefore still visits groups in exact (front arrival,
// platter) order, and selection output is identical to the ordered-set
// implementation this replaced. The heap is rebuilt from its own live entries
// if stale ones ever dominate.
#ifndef SILICA_CORE_REQUEST_SCHEDULER_H_
#define SILICA_CORE_REQUEST_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/request.h"

namespace silica {

class Counter;
class Gauge;
class StateReader;
class StateWriter;
struct Telemetry;

// Platter -> queued-request storage shared by one or more schedulers.
class PlatterQueues {
 public:
  static constexpr int32_t kNone = -1;

  struct Group {
    double front_arrival = 0.0;  // arrival of the head request
    uint64_t platter = 0;
    uint64_t bytes = 0;
    int32_t head = kNone;  // request nodes, oldest first
    int32_t tail = kNone;
    int32_t owner = 0;  // scheduler (shard) currently queueing the platter
    uint32_t size = 0;
  };

  // Pre-sizes the platter index; it also grows on demand.
  void Reserve(uint64_t num_platters);

  // Group of `platter` (any owner), or kNone.
  int32_t GroupOf(uint64_t platter) const {
    return platter < slots_.size() ? slots_[platter] : kNone;
  }
  Group& group(int32_t g) { return groups_[static_cast<size_t>(g)]; }
  const Group& group(int32_t g) const { return groups_[static_cast<size_t>(g)]; }

  // Creates an empty group for a platter that has none.
  int32_t Create(uint64_t platter, int32_t owner);
  // Frees an empty group and its platter's slot.
  void Release(int32_t g);

  void PushBack(int32_t g, const ReadRequest& request);
  void PushFront(int32_t g, const ReadRequest& request);
  // Removes the head request of a non-empty group.
  ReadRequest PopFront(int32_t g);
  // Moves every request of the group into `out` (oldest first), leaving it empty.
  void DrainInto(int32_t g, std::vector<ReadRequest>& out);

  // Checkpoint/restore of the physical layout (slots, pools, free lists), so
  // a restored table hands out the same group and node ids as the original.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  struct Node {
    ReadRequest request;
    int32_t next = kNone;
  };
  int32_t AllocNode(const ReadRequest& request);
  void FreeNode(int32_t n);

  std::vector<int32_t> slots_;  // platter id -> group
  std::vector<Group> groups_;
  std::vector<int32_t> free_groups_;
  std::vector<Node> nodes_;
  int32_t free_nodes_ = kNone;  // free list threaded through Node::next
};

class RequestScheduler {
 public:
  // A standalone scheduler owning its platter table.
  RequestScheduler();
  // Shard `shard` of a table shared with other schedulers (not owned).
  RequestScheduler(PlatterQueues* queues, int shard);

  // Publishes queue-depth gauges and a submission counter, labeled with this
  // scheduler's partition id, into the registry; nullptr detaches.
  void SetTelemetry(Telemetry* telemetry, int scheduler_id);

  // Pre-sizes the platter index (platter ids are dense layout indices). Optional:
  // the index also grows on demand.
  void ReservePlatters(uint64_t num_platters) { queues_->Reserve(num_platters); }

  // Queues a request. Requests must be submitted in nondecreasing arrival order
  // (the event loop guarantees this). Throws if another shard of a shared table
  // queues the platter.
  void Submit(const ReadRequest& request);

  // Selects the platter with the earliest queued request among those for which
  // `accessible(platter)` returns true. Returns nullopt when nothing is
  // selectable.
  template <typename Accessible>
  std::optional<uint64_t> SelectPlatter(Accessible&& accessible) const;

  // Removes and returns every queued request for `platter`, arrival order
  // intact.
  std::vector<ReadRequest> TakeRequests(uint64_t platter);
  // Pops the oldest queued request for `platter` into `out` without building a
  // batch (the per-read serve path). Returns false when none is queued.
  bool TakeFront(uint64_t platter, ReadRequest* out);

  // Puts a previously taken request back at the *front* of its platter group,
  // restoring arrival order. Used by degraded mode when a read drive dies with a
  // request in flight: the popped request must re-enter the queue ahead of its
  // younger siblings, which Submit's nondecreasing-arrival contract forbids.
  void Requeue(const ReadRequest& request);

  // Hands the platter's whole group, arrival order intact, to `to` — another
  // scheduler over the same table. O(1) in the group size. Returns the number
  // of requests moved (0 when this scheduler queues nothing for the platter).
  size_t MoveGroupTo(uint64_t platter, RequestScheduler& to);

  bool HasRequests(uint64_t platter) const { return OwnGroup(platter) != kNone; }
  size_t pending_requests() const { return pending_requests_; }
  size_t pending_platters() const { return active_groups_; }
  uint64_t total_queued_bytes() const { return total_bytes_; }

  // Total queued bytes for a platter (0 when none), and the arrival time of its
  // oldest queued request.
  uint64_t QueuedBytes(uint64_t platter) const;
  std::optional<double> EarliestArrival(uint64_t platter) const;

  // Checkpoint/restore: serializes the *physical* layout (an owned table,
  // the lazy heap, the counters), not just the logical queue contents, so a
  // restored scheduler replays heap-compaction timing exactly. A shard of a
  // shared table writes only its own state; the table's owner saves the table.
  // Telemetry handles are untouched.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  static constexpr int32_t kNone = PlatterQueues::kNone;
  // (arrival lower bound, platter): min-heap entries (see the file comment).
  using Entry = std::pair<double, uint64_t>;

  // This scheduler's group for the platter, or kNone (absent, or queued by
  // another shard of the shared table).
  int32_t OwnGroup(uint64_t platter) const {
    const int32_t g = queues_->GroupOf(platter);
    return g != kNone && queues_->group(g).owner == shard_ ? g : kNone;
  }
  // Group for a request about to be queued; creates it when absent.
  int32_t GroupFor(uint64_t platter, bool* created);
  void ReleaseGroup(int32_t g);
  void PushEntry(double arrival, uint64_t platter) const;
  // Rebuilds the heap from its live entries once stale entries dominate, so
  // lazy deletion stays O(live) in memory.
  void CompactHeapIfNeeded();
  void PublishDepth();

  std::unique_ptr<PlatterQueues> owned_;  // standalone table, else null
  PlatterQueues* queues_ = nullptr;
  int32_t shard_ = 0;

  Counter* submitted_counter_ = nullptr;
  Gauge* pending_gauge_ = nullptr;
  Gauge* bytes_gauge_ = nullptr;

  // Lazy min-heap (std::greater on (arrival, platter)). Mutable with scratch_:
  // SelectPlatter pops entries to visit them in sorted order, re-keys lower
  // bounds, and pushes the live ones back — logically const, physically a
  // reshuffle.
  mutable std::vector<Entry> heap_;
  mutable std::vector<Entry> scratch_;

  size_t active_groups_ = 0;
  size_t pending_requests_ = 0;
  uint64_t total_bytes_ = 0;
};

template <typename Accessible>
std::optional<uint64_t> RequestScheduler::SelectPlatter(
    Accessible&& accessible) const {
  // Pop entries to visit them in exact (arrival, platter) order. Entries of
  // drained or moved-away groups are dropped for good; a lower bound is
  // re-keyed to its group's front and met again in order; duplicates (equal
  // keys are only ever duplicates of one group's front) are skipped; and the
  // visited entries are pushed back afterwards so the heap still covers every
  // group.
  scratch_.clear();
  std::optional<uint64_t> found;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
    const Entry entry = heap_.back();
    heap_.pop_back();
    const int32_t g = OwnGroup(entry.second);
    if (g == kNone) {
      continue;
    }
    const double front = queues_->group(g).front_arrival;
    if (entry.first != front) {
      if (entry.first < front) {
        PushEntry(front, entry.second);
      }
      continue;  // above the front: an exact entry was already met
    }
    if (!scratch_.empty() && scratch_.back() == entry) {
      continue;
    }
    scratch_.push_back(entry);
    if (accessible(entry.second)) {
      found = entry.second;
      break;
    }
  }
  // scratch_ is sorted ascending, so each push sifts O(1) on average.
  for (const Entry& entry : scratch_) {
    PushEntry(entry.first, entry.second);
  }
  return found;
}

inline void RequestScheduler::PushEntry(double arrival, uint64_t platter) const {
  heap_.emplace_back(arrival, platter);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
}

}  // namespace silica

#endif  // SILICA_CORE_REQUEST_SCHEDULER_H_
