#include "core/sharded_scheduler.h"

#include <stdexcept>

#include "common/state_io.h"
#include "telemetry/telemetry.h"

namespace silica {

void ShardedScheduler::Init(int num_shards, uint64_t num_platters) {
  queues_ = PlatterQueues();
  queues_.Reserve(num_platters);
  shards_.clear();
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.emplace_back(&queues_, s);
  }
  heap_.clear();
  scratch_.clear();
  seen_epoch_.assign(static_cast<size_t>(num_shards), 0);
  scan_failed_.assign(static_cast<size_t>(num_shards), 0);
  epoch_ = 0;
  nonzero_shards_ = 0;
  live_nonzero_ = 0;
  mutation_epoch_ = 0;
}

void ShardedScheduler::Submit(int shard, const ReadRequest& request) {
  auto& s = shards_[static_cast<size_t>(shard)];
  const uint64_t before = s.total_queued_bytes();
  s.Submit(request);
  NoteBytesChanged(shard, before);
}

void ShardedScheduler::Requeue(int shard, const ReadRequest& request) {
  auto& s = shards_[static_cast<size_t>(shard)];
  const uint64_t before = s.total_queued_bytes();
  s.Requeue(request);
  NoteBytesChanged(shard, before);
}

std::vector<ReadRequest> ShardedScheduler::TakeRequests(int shard,
                                                        uint64_t platter) {
  auto& s = shards_[static_cast<size_t>(shard)];
  const uint64_t before = s.total_queued_bytes();
  auto taken = s.TakeRequests(platter);
  NoteBytesChanged(shard, before);
  return taken;
}

bool ShardedScheduler::TakeFront(int shard, uint64_t platter, ReadRequest* out) {
  auto& s = shards_[static_cast<size_t>(shard)];
  const uint64_t before = s.total_queued_bytes();
  const bool taken = s.TakeFront(platter, out);
  NoteBytesChanged(shard, before);
  return taken;
}

uint64_t ShardedScheduler::total_queued_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.total_queued_bytes();
  }
  return total;
}

size_t ShardedScheduler::pending_requests() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.pending_requests();
  }
  return total;
}

size_t ShardedScheduler::MigrateQueue(uint64_t platter, int from, int to) {
  if (from == to) {
    return 0;
  }
  auto& src = shards_[static_cast<size_t>(from)];
  auto& dst = shards_[static_cast<size_t>(to)];
  const uint64_t src_before = src.total_queued_bytes();
  const uint64_t dst_before = dst.total_queued_bytes();
  const size_t moved = src.MoveGroupTo(platter, dst);
  // Like every routed call, the source is noted even when nothing moved: its
  // scan memo clears and the epoch advances as a function of the calls alone.
  NoteBytesChanged(from, src_before);
  if (moved > 0) {
    NoteBytesChanged(to, dst_before);
  }
  return moved;
}

void ShardedScheduler::SetTelemetry(Telemetry* telemetry) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].SetTelemetry(telemetry, static_cast<int>(s));
  }
}

void ShardedScheduler::NoteBytesChanged(int shard, uint64_t before) {
  // Any routed mutation may have changed queue content (even when the byte
  // total happens to match): a previously fruitless SelectPlatter may now find
  // work, so this shard's scan memo no longer holds. The live-shard count
  // swaps this shard's old contribution (nonzero with a clear memo) for its
  // new one (nonzero, memo just cleared).
  const size_t s = static_cast<size_t>(shard);
  const uint64_t now = shards_[s].total_queued_bytes();
  live_nonzero_ += (now > 0 ? 1 : 0) -
                   ((before > 0 && scan_failed_[s] == 0) ? 1 : 0);
  scan_failed_[s] = 0;
  ++mutation_epoch_;
  if (now == before) {
    return;
  }
  nonzero_shards_ += (now > 0 ? 1 : 0) - (before > 0 ? 1 : 0);
  if (now > 0) {
    heap_.emplace_back(now, shard);
    std::push_heap(heap_.begin(), heap_.end());
    CompactHeapIfNeeded();
  }
}

void ShardedScheduler::CompactHeapIfNeeded() {
  // Stale entries accumulate one per mutation; rebuild from live shard state
  // once they dominate. Purely count-driven, so compaction timing is a
  // deterministic function of the operation sequence — and enumeration output
  // is unchanged either way (stale entries are skipped when they surface).
  if (heap_.size() < 64 ||
      heap_.size() <= 4 * static_cast<size_t>(nonzero_shards_)) {
    return;
  }
  heap_.clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t bytes = shards_[s].total_queued_bytes();
    if (bytes > 0) {
      heap_.emplace_back(bytes, static_cast<int>(s));
    }
  }
  std::make_heap(heap_.begin(), heap_.end());
}

void ShardedScheduler::SaveState(StateWriter& w) const {
  queues_.SaveState(w);
  w.U64(shards_.size());
  for (const RequestScheduler& shard : shards_) {
    shard.SaveState(w);
  }
  w.Vec(heap_, [](StateWriter& sw, const Entry& entry) {
    sw.U64(entry.first);
    sw.I32(entry.second);
  });
  w.VecU64(seen_epoch_);
  w.VecU8(scan_failed_);
  w.U64(epoch_);
  w.I32(nonzero_shards_);
  w.I32(live_nonzero_);
  w.U64(mutation_epoch_);
}

void ShardedScheduler::LoadState(StateReader& r) {
  queues_.LoadState(r);
  const uint64_t num_shards = r.Len();
  if (num_shards != shards_.size()) {
    throw std::runtime_error("ShardedScheduler::LoadState: shard count mismatch");
  }
  for (RequestScheduler& shard : shards_) {
    shard.LoadState(r);
  }
  r.Vec(heap_, [](StateReader& sr) {
    const uint64_t bytes = sr.U64();
    const int shard = sr.I32();
    return Entry{bytes, shard};
  });
  scratch_.clear();
  seen_epoch_ = r.VecU64();
  scan_failed_ = r.VecU8();
  epoch_ = r.U64();
  nonzero_shards_ = r.I32();
  live_nonzero_ = r.I32();
  mutation_epoch_ = r.U64();
}

}  // namespace silica
