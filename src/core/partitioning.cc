#include "core/partitioning.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/state_io.h"

namespace silica {
namespace {

// Rows of the partition grid on one side: the divisor of `count` no larger than
// `max_rows` that is closest to the natural band count (about 5 bands of 2 shelves).
int PickRows(int count, int max_rows) {
  int best = 1;
  double best_score = 1e9;
  for (int d = 1; d <= std::min(count, max_rows); ++d) {
    if (count % d == 0) {
      const double score = std::fabs(static_cast<double>(d) - 5.0);
      if (score < best_score) {
        best_score = score;
        best = d;
      }
    }
  }
  return best;
}

// Upper bound on the shift floor: on wide grids a partition keeps at least a
// shuttle-body's worth of storage columns (half a rack).
constexpr double kMaxShiftFloorM = 0.6;

}  // namespace

Partitioner::Partitioner(const Panel& panel, int num_partitions) {
  const auto& config = panel.config();
  if (num_partitions < 1) {
    throw std::invalid_argument("Partitioner: need at least one partition");
  }
  if (num_partitions > 2 * config.num_read_drives()) {
    throw std::invalid_argument(
        "Partitioner: active shuttles bounded by twice the read drives");
  }

  const double storage_x0 = panel.StorageBeginX();
  const double storage_x1 = panel.StorageEndX();
  const int sides = config.read_racks;
  const double mid = sides == 2 ? 0.5 * (storage_x0 + storage_x1) : storage_x1;

  // Split partitions across the panel sides, then grid each side.
  std::vector<int> per_side(static_cast<size_t>(sides));
  for (int s = 0; s < sides; ++s) {
    per_side[static_cast<size_t>(s)] = num_partitions / sides +
                                       (s < num_partitions % sides ? 1 : 0);
  }

  int index = 0;
  for (int side = 0; side < sides; ++side) {
    const int count = per_side[static_cast<size_t>(side)];
    if (count == 0) {
      continue;
    }
    const double side_x0 = side == 0 ? storage_x0 : mid;
    const double side_x1 = side == 0 ? mid : storage_x1;
    const int rows = PickRows(count, config.shelves);
    const int cols = count / rows;

    for (int cell = 0; cell < count; ++cell) {
      const int row = cell / cols;
      const int col = cell % cols;
      Partition p;
      p.index = index++;
      p.side = side;
      p.shelf_min = row * config.shelves / rows;
      p.shelf_max = (row + 1) * config.shelves / rows - 1;
      p.x_min = side_x0 + col * (side_x1 - side_x0) / cols;
      p.x_max = side_x0 + (col + 1) * (side_x1 - side_x0) / cols;
      partitions_.push_back(p);
    }
  }

  // Drive assignment, two phases. Phase 1 guarantees spread: every partition,
  // in index order, claims the closest unassigned drive on its side before any
  // partition gets a second one. A pure per-drive greedy looked equivalent but
  // was not — shelf bands with fewer drives than partitions came up empty, the
  // borrow fallback below then handed every one of them the *same* donor
  // drive, and at 128 shuttles ~15 partitions ended up funneled through one
  // read drive (hour-long request starvation) while neighbouring drives idled.
  std::vector<char> drive_taken(static_cast<size_t>(config.num_read_drives()), 0);
  // A drive's side is its read rack (rack 0 serves the left storage half, rack
  // 1 the right), NOT its x position: DrivePositionOf spreads a rack's drives
  // over columns of five, so on dense fleets rack-0 drive columns sprawl past
  // the panel midpoint and a positional test hands them to the wrong side.
  auto side_of_drive = [&](int drive) {
    return (sides == 2 && drive >= config.drives_per_read_rack) ? 1 : 0;
  };
  for (auto& p : partitions_) {
    const double band_mid = 0.5 * (p.shelf_min + p.shelf_max);
    int best = -1;
    double best_distance = 1e18;
    for (int drive = 0; drive < config.num_read_drives(); ++drive) {
      if (drive_taken[static_cast<size_t>(drive)] != 0 ||
          (sides == 2 && side_of_drive(drive) != p.side)) {
        continue;
      }
      const double distance =
          std::fabs(band_mid - panel.DrivePositionOf(drive).shelf);
      if (distance < best_distance) {  // strict <: ties go to the lower id
        best_distance = distance;
        best = drive;
      }
    }
    if (best >= 0) {
      drive_taken[static_cast<size_t>(best)] = 1;
      p.drives.push_back(best);
    }
  }

  // Phase 2: leftover drives go to the same-side partition with the closest
  // shelf band, breaking ties toward the least-loaded partition.
  for (int drive = 0; drive < config.num_read_drives(); ++drive) {
    if (drive_taken[static_cast<size_t>(drive)] != 0) {
      continue;
    }
    const auto pos = panel.DrivePositionOf(drive);
    const int drive_side = side_of_drive(drive);
    Partition* best = nullptr;
    double best_score = 1e18;
    for (auto& p : partitions_) {
      if (sides == 2 && p.side != drive_side) {
        continue;
      }
      const double band_mid = 0.5 * (p.shelf_min + p.shelf_max);
      const double shelf_distance = std::fabs(band_mid - pos.shelf);
      const double load_penalty = 0.25 * static_cast<double>(p.drives.size());
      const double score = shelf_distance + load_penalty;
      if (score < best_score) {
        best_score = score;
        best = &p;
      }
    }
    if (best == nullptr) {  // single-sided panel with all partitions on side 0
      best = &partitions_.front();
    }
    best->drives.push_back(drive);
  }

  // The shift floor scales with the constructed grid: a fixed half-rack floor
  // would refuse every rebalance once columns start out narrower than it,
  // which is exactly the dense-fleet regime (128+ shuttles -> ~0.3 m columns)
  // where rebalancing matters most. 35% of the narrowest initial column still
  // leaves room for about three quarter-width shifts from any starting width.
  double narrowest = 1e18;
  for (const auto& p : partitions_) {
    narrowest = std::min(narrowest, p.x_max - p.x_min);
  }
  min_shift_width_m_ = std::min(kMaxShiftFloorM, 0.35 * narrowest);
  BuildRowIndex();

  // The paper requires every partition to contain at least one read drive slot;
  // with dual-slot drives, a drive's two slots can satisfy two partitions, so
  // borrow a slot from the nearest drive-rich partition when a partition ended up
  // empty (happens when shuttles outnumber drives).
  for (auto& p : partitions_) {
    if (!p.drives.empty()) {
      continue;
    }
    Partition* donor = nullptr;
    double best_distance = 1e18;
    for (auto& q : partitions_) {
      if (q.index == p.index || q.drives.empty()) {
        continue;
      }
      // Prefer donors with multiple drives and a nearby shelf band on the same side.
      const double distance = std::fabs(0.5 * (q.shelf_min + q.shelf_max) -
                                        0.5 * (p.shelf_min + p.shelf_max)) +
                              (q.side != p.side ? 100.0 : 0.0) +
                              (q.drives.size() < 2 ? 10.0 : 0.0);
      if (distance < best_distance) {
        best_distance = distance;
        donor = &q;
      }
    }
    if (donor != nullptr) {
      // Shared drive (dual-slot). Rotate by borrower index so consecutive
      // borrowers from the same donor spread over its drives instead of all
      // piling onto the last one.
      p.drives.push_back(
          donor->drives[static_cast<size_t>(p.index) % donor->drives.size()]);
    }
  }
}

void Partitioner::BuildRowIndex() {
  int shelves = 0;
  for (const auto& p : partitions_) {
    shelves = std::max(shelves, p.shelf_max + 1);
  }
  rows_.assign(static_cast<size_t>(shelves), {});
  for (const auto& p : partitions_) {
    for (int shelf = p.shelf_min; shelf <= p.shelf_max; ++shelf) {
      rows_[static_cast<size_t>(shelf)].push_back(RowEntry{p.x_min, p.index});
    }
  }
  for (auto& row : rows_) {
    std::sort(row.begin(), row.end(), [](const RowEntry& a, const RowEntry& b) {
      return a.x_min < b.x_min || (a.x_min == b.x_min && a.index < b.index);
    });
  }
}

int Partitioner::PartitionOfSlot(double x, int shelf) const {
  // Exact rectangle match first: the only candidate on the shelf's row is the
  // rightmost rectangle starting at or before x.
  if (shelf >= 0 && static_cast<size_t>(shelf) < rows_.size()) {
    const auto& row = rows_[static_cast<size_t>(shelf)];
    const auto it = std::upper_bound(
        row.begin(), row.end(), x,
        [](double v, const RowEntry& entry) { return v < entry.x_min; });
    if (it != row.begin()) {
      const Partition& p = partitions_[static_cast<size_t>((it - 1)->index)];
      if (p.ContainsSlot(x, shelf)) {
        return p.index;
      }
    }
  }
  // Edge coordinates (x == global max) fall through; snap to the nearest rectangle.
  int best = 0;
  double best_score = 1e18;
  for (const auto& p : partitions_) {
    const double cx = 0.5 * (p.x_min + p.x_max);
    const double cy = 0.5 * (p.shelf_min + p.shelf_max);
    const double score = std::fabs(cx - x) + std::fabs(cy - shelf);
    if (score < best_score) {
      best_score = score;
      best = p.index;
    }
  }
  return best;
}


int Partitioner::LeftNeighborOf(int partition) const {
  const Partition& p = partitions_[static_cast<size_t>(partition)];
  for (const auto& q : partitions_) {
    if (q.index != p.index && q.side == p.side && q.shelf_min == p.shelf_min &&
        q.shelf_max == p.shelf_max && q.x_max == p.x_min) {
      return q.index;
    }
  }
  return -1;
}

int Partitioner::RightNeighborOf(int partition) const {
  const Partition& p = partitions_[static_cast<size_t>(partition)];
  for (const auto& q : partitions_) {
    if (q.index != p.index && q.side == p.side && q.shelf_min == p.shelf_min &&
        q.shelf_max == p.shelf_max && q.x_min == p.x_max) {
      return q.index;
    }
  }
  return -1;
}

bool Partitioner::ShiftBoundary(int hot, int cold) {
  if (hot < 0 || cold < 0 || hot == cold || hot >= size() || cold >= size()) {
    return false;
  }
  Partition& h = partitions_[static_cast<size_t>(hot)];
  Partition& c = partitions_[static_cast<size_t>(cold)];
  if (h.side != c.side || h.shelf_min != c.shelf_min ||
      h.shelf_max != c.shelf_max) {
    return false;
  }
  const double width = h.x_max - h.x_min;
  const double step = 0.25 * width;
  if (width - step < min_shift_width_m_) {
    return false;
  }
  // Boundaries of same-row neighbours stay exactly equal (the shifted edge is
  // assigned to both rectangles), so the == adjacency tests above remain exact
  // across any number of shifts.
  double boundary = 0.0;
  if (c.x_max == h.x_min) {  // cold on the left: its rectangle grows rightward
    boundary = h.x_min + step;
    h.x_min = boundary;
    c.x_max = boundary;
  } else if (c.x_min == h.x_max) {  // cold on the right
    boundary = h.x_max - step;
    h.x_max = boundary;
    c.x_min = boundary;
  } else {
    return false;
  }
  history_.push_back(RebalanceStep{hot, cold, boundary});
  BuildRowIndex();
  return true;
}

DrivePosition Partitioner::HomeOf(int partition) const {
  const auto& p = partitions_.at(static_cast<size_t>(partition));
  DrivePosition home;
  home.x = 0.5 * (p.x_min + p.x_max);
  home.shelf = (p.shelf_min + p.shelf_max) / 2;
  return home;
}

void Partitioner::SaveState(StateWriter& w) const {
  w.U64(partitions_.size());
  for (const Partition& p : partitions_) {
    w.I32(p.index);
    w.I32(p.side);
    w.I32(p.shelf_min);
    w.I32(p.shelf_max);
    w.F64(p.x_min);
    w.F64(p.x_max);
    w.VecInt(p.drives);
  }
  w.Vec(history_, [](StateWriter& sw, const RebalanceStep& step) {
    sw.I32(step.hot);
    sw.I32(step.cold);
    sw.F64(step.boundary_x);
  });
}

void Partitioner::LoadState(StateReader& r) {
  const uint64_t count = r.Len();
  if (count != partitions_.size()) {
    throw std::runtime_error("Partitioner::LoadState: partition count mismatch");
  }
  for (Partition& p : partitions_) {
    p.index = r.I32();
    p.side = r.I32();
    p.shelf_min = r.I32();
    p.shelf_max = r.I32();
    p.x_min = r.F64();
    p.x_max = r.F64();
    p.drives = r.VecInt();
  }
  r.Vec(history_, [](StateReader& sr) {
    RebalanceStep step;
    step.hot = sr.I32();
    step.cold = sr.I32();
    step.boundary_x = sr.F64();
    return step;
  });
  BuildRowIndex();
}

}  // namespace silica
