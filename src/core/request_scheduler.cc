#include "core/request_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace silica {

// ---- PlatterQueues ----

void PlatterQueues::Reserve(uint64_t num_platters) {
  if (num_platters > slots_.size()) {
    slots_.resize(num_platters, kNone);
  }
}

int32_t PlatterQueues::Create(uint64_t platter, int32_t owner) {
  Reserve(platter + 1);
  int32_t g;
  if (!free_groups_.empty()) {
    g = free_groups_.back();
    free_groups_.pop_back();
  } else {
    g = static_cast<int32_t>(groups_.size());
    groups_.emplace_back();
  }
  slots_[platter] = g;
  Group& group = groups_[static_cast<size_t>(g)];
  group = Group{};
  group.platter = platter;
  group.owner = owner;
  return g;
}

void PlatterQueues::Release(int32_t g) {
  slots_[groups_[static_cast<size_t>(g)].platter] = kNone;
  free_groups_.push_back(g);
}

int32_t PlatterQueues::AllocNode(const ReadRequest& request) {
  int32_t n = free_nodes_;
  if (n != kNone) {
    free_nodes_ = nodes_[static_cast<size_t>(n)].next;
  } else {
    n = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[static_cast<size_t>(n)];
  node.request = request;
  node.next = kNone;
  return n;
}

void PlatterQueues::FreeNode(int32_t n) {
  nodes_[static_cast<size_t>(n)].next = free_nodes_;
  free_nodes_ = n;
}

void PlatterQueues::PushBack(int32_t g, const ReadRequest& request) {
  const int32_t n = AllocNode(request);
  Group& group = groups_[static_cast<size_t>(g)];
  if (group.tail == kNone) {
    group.head = n;
    group.front_arrival = request.arrival;
  } else {
    nodes_[static_cast<size_t>(group.tail)].next = n;
  }
  group.tail = n;
  group.bytes += request.bytes;
  ++group.size;
}

void PlatterQueues::PushFront(int32_t g, const ReadRequest& request) {
  const int32_t n = AllocNode(request);
  Group& group = groups_[static_cast<size_t>(g)];
  nodes_[static_cast<size_t>(n)].next = group.head;
  group.head = n;
  if (group.tail == kNone) {
    group.tail = n;
  }
  group.front_arrival = request.arrival;
  group.bytes += request.bytes;
  ++group.size;
}

ReadRequest PlatterQueues::PopFront(int32_t g) {
  Group& group = groups_[static_cast<size_t>(g)];
  const int32_t n = group.head;
  const Node& node = nodes_[static_cast<size_t>(n)];
  const ReadRequest request = node.request;
  group.head = node.next;
  if (group.head == kNone) {
    group.tail = kNone;
  } else {
    group.front_arrival = nodes_[static_cast<size_t>(group.head)].request.arrival;
  }
  group.bytes -= request.bytes;
  --group.size;
  FreeNode(n);
  return request;
}

void PlatterQueues::DrainInto(int32_t g, std::vector<ReadRequest>& out) {
  Group& group = groups_[static_cast<size_t>(g)];
  out.reserve(out.size() + group.size);
  for (int32_t n = group.head; n != kNone;) {
    const int32_t next = nodes_[static_cast<size_t>(n)].next;
    out.push_back(nodes_[static_cast<size_t>(n)].request);
    FreeNode(n);
    n = next;
  }
  group.head = kNone;
  group.tail = kNone;
  group.bytes = 0;
  group.size = 0;
}

void PlatterQueues::SaveState(StateWriter& w) const {
  w.VecI32(slots_);
  w.Vec(groups_, [](StateWriter& sw, const Group& group) {
    sw.F64(group.front_arrival);
    sw.U64(group.platter);
    sw.U64(group.bytes);
    sw.I32(group.head);
    sw.I32(group.tail);
    sw.I32(group.owner);
    sw.U32(group.size);
  });
  w.VecI32(free_groups_);
  w.Vec(nodes_, [](StateWriter& sw, const Node& node) {
    SaveRequest(sw, node.request);
    sw.I32(node.next);
  });
  w.I32(free_nodes_);
}

void PlatterQueues::LoadState(StateReader& r) {
  slots_ = r.VecI32();
  r.Vec(groups_, [](StateReader& sr) {
    Group group;
    group.front_arrival = sr.F64();
    group.platter = sr.U64();
    group.bytes = sr.U64();
    group.head = sr.I32();
    group.tail = sr.I32();
    group.owner = sr.I32();
    group.size = sr.U32();
    return group;
  });
  free_groups_ = r.VecI32();
  r.Vec(nodes_, [](StateReader& sr) {
    Node node;
    node.request = LoadRequest(sr);
    node.next = sr.I32();
    return node;
  });
  free_nodes_ = r.I32();
}

// ---- RequestScheduler ----

RequestScheduler::RequestScheduler()
    : owned_(std::make_unique<PlatterQueues>()), queues_(owned_.get()) {}

RequestScheduler::RequestScheduler(PlatterQueues* queues, int shard)
    : queues_(queues), shard_(shard) {}

void RequestScheduler::SetTelemetry(Telemetry* telemetry, int scheduler_id) {
  if (telemetry == nullptr) {
    submitted_counter_ = nullptr;
    pending_gauge_ = nullptr;
    bytes_gauge_ = nullptr;
    return;
  }
  const MetricLabels labels = {{"scheduler", std::to_string(scheduler_id)}};
  submitted_counter_ =
      &telemetry->metrics.GetCounter("scheduler_requests_submitted_total", labels);
  pending_gauge_ =
      &telemetry->metrics.GetGauge("scheduler_pending_requests", labels);
  bytes_gauge_ = &telemetry->metrics.GetGauge("scheduler_queued_bytes", labels);
}

void RequestScheduler::PublishDepth() {
  if (pending_gauge_ != nullptr) {
    pending_gauge_->Set(static_cast<double>(pending_requests_));
    bytes_gauge_->Set(static_cast<double>(total_bytes_));
  }
}

int32_t RequestScheduler::GroupFor(uint64_t platter, bool* created) {
  const int32_t g = queues_->GroupOf(platter);
  if (g != kNone) {
    if (queues_->group(g).owner != shard_) {
      throw std::logic_error(
          "RequestScheduler: platter is queued by another shard");
    }
    *created = false;
    return g;
  }
  *created = true;
  ++active_groups_;
  return queues_->Create(platter, shard_);
}

void RequestScheduler::ReleaseGroup(int32_t g) {
  queues_->Release(g);  // this shard's heap entries for it go stale
  --active_groups_;
}

void RequestScheduler::CompactHeapIfNeeded() {
  if (heap_.size() <= 2 * active_groups_ + 64) {
    return;
  }
  // Every live group still has an entry here (the heap invariant), so the
  // distinct platters of the owned entries, keyed exactly, are the whole
  // rebuilt heap. Ascending order is a valid min-heap.
  size_t live = 0;
  for (const Entry& entry : heap_) {
    const int32_t g = OwnGroup(entry.second);
    if (g != kNone) {
      heap_[live++] = Entry{queues_->group(g).front_arrival, entry.second};
    }
  }
  heap_.resize(live);
  std::sort(heap_.begin(), heap_.end());
  heap_.erase(std::unique(heap_.begin(), heap_.end()), heap_.end());
}

void RequestScheduler::Submit(const ReadRequest& request) {
  bool created = false;
  const int32_t g = GroupFor(request.platter, &created);
  if (!created && request.arrival < queues_->group(g).front_arrival) {
    throw std::invalid_argument("RequestScheduler: out-of-order submission");
  }
  queues_->PushBack(g, request);
  total_bytes_ += request.bytes;
  ++pending_requests_;
  if (created) {
    // Push after the queue mutation: a compaction re-keys entries from the
    // groups' front arrivals, so the new group must be non-empty by now.
    PushEntry(request.arrival, request.platter);
    CompactHeapIfNeeded();
  }
  if (submitted_counter_ != nullptr) {
    submitted_counter_->Increment();
    PublishDepth();
  }
}

std::vector<ReadRequest> RequestScheduler::TakeRequests(uint64_t platter) {
  std::vector<ReadRequest> taken;
  const int32_t g = OwnGroup(platter);
  if (g == kNone) {
    return taken;
  }
  total_bytes_ -= queues_->group(g).bytes;
  queues_->DrainInto(g, taken);
  pending_requests_ -= taken.size();
  ReleaseGroup(g);
  PublishDepth();
  return taken;
}

bool RequestScheduler::TakeFront(uint64_t platter, ReadRequest* out) {
  const int32_t g = OwnGroup(platter);
  if (g == kNone) {
    return false;
  }
  *out = queues_->PopFront(g);
  total_bytes_ -= out->bytes;
  --pending_requests_;
  if (queues_->group(g).size == 0) {
    ReleaseGroup(g);
  }
  // Otherwise the front moved later (or stayed): the heap entry is still a
  // lower bound and gets re-keyed if it ever surfaces.
  PublishDepth();
  return true;
}

void RequestScheduler::Requeue(const ReadRequest& request) {
  bool created = false;
  const int32_t g = GroupFor(request.platter, &created);
  const double front = queues_->group(g).front_arrival;
  if (!created && request.arrival > front) {
    throw std::invalid_argument("RequestScheduler: Requeue would reorder arrivals");
  }
  queues_->PushFront(g, request);
  total_bytes_ += request.bytes;
  ++pending_requests_;
  if (created || request.arrival < front) {
    PushEntry(request.arrival, request.platter);
    CompactHeapIfNeeded();
  }
  PublishDepth();
}

size_t RequestScheduler::MoveGroupTo(uint64_t platter, RequestScheduler& to) {
  const int32_t g = OwnGroup(platter);
  if (g == kNone || &to == this) {
    return 0;
  }
  if (to.queues_ != queues_) {
    throw std::logic_error("RequestScheduler: MoveGroupTo across tables");
  }
  PlatterQueues::Group& group = queues_->group(g);
  group.owner = to.shard_;
  const size_t moved = group.size;
  total_bytes_ -= group.bytes;
  pending_requests_ -= moved;
  --active_groups_;
  to.total_bytes_ += group.bytes;
  to.pending_requests_ += moved;
  ++to.active_groups_;
  to.PushEntry(group.front_arrival, platter);
  to.CompactHeapIfNeeded();
  PublishDepth();
  to.PublishDepth();
  return moved;
}

uint64_t RequestScheduler::QueuedBytes(uint64_t platter) const {
  const int32_t g = OwnGroup(platter);
  return g == kNone ? 0 : queues_->group(g).bytes;
}

std::optional<double> RequestScheduler::EarliestArrival(uint64_t platter) const {
  const int32_t g = OwnGroup(platter);
  if (g == kNone) {
    return std::nullopt;
  }
  return queues_->group(g).front_arrival;
}

void RequestScheduler::SaveState(StateWriter& w) const {
  if (owned_ != nullptr) {
    owned_->SaveState(w);
  }
  w.Vec(heap_, [](StateWriter& sw, const Entry& entry) {
    sw.F64(entry.first);
    sw.U64(entry.second);
  });
  w.U64(active_groups_);
  w.U64(pending_requests_);
  w.U64(total_bytes_);
}

void RequestScheduler::LoadState(StateReader& r) {
  if (owned_ != nullptr) {
    owned_->LoadState(r);
  }
  r.Vec(heap_, [](StateReader& sr) {
    const double arrival = sr.F64();
    const uint64_t platter = sr.U64();
    return Entry{arrival, platter};
  });
  scratch_.clear();
  active_groups_ = r.U64();
  pending_requests_ = r.U64();
  total_bytes_ = r.U64();
  PublishDepth();
}

}  // namespace silica
