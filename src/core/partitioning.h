// Logical panel partitioning for the traffic manager (Section 4.1).
//
// The traffic manager splits the storage racks and read drives of a panel into n
// rectangular segments, one per active shuttle. Each partition owns a shelf band and
// an x-column of the storage region on one side of the panel, extends logically to
// the read rack on that side, and is assigned at least one read drive. Under normal
// operation shuttles stay inside their partition, which keeps them off each other's
// rails and eliminates congestion at the read drives.
#ifndef SILICA_CORE_PARTITIONING_H_
#define SILICA_CORE_PARTITIONING_H_

#include <vector>

#include "library/panel.h"

namespace silica {

class StateReader;
class StateWriter;

struct Partition {
  int index = 0;
  int side = 0;           // 0 = left read rack, 1 = right read rack
  int shelf_min = 0;
  int shelf_max = 0;      // inclusive
  double x_min = 0.0;     // owned storage x-range
  double x_max = 0.0;
  std::vector<int> drives;  // read drives assigned to this partition

  bool ContainsSlot(double x, int shelf) const {
    return shelf >= shelf_min && shelf <= shelf_max && x >= x_min && x < x_max;
  }
};

// One dynamic-repartitioning step: a slice of the hot partition's rectangle was
// split off and merged into the cold same-row neighbour, moving the shared
// boundary to `boundary_x`. The history is a pure function of the step sequence
// (no hidden state), which is what the 50-seed determinism tests pin.
struct RebalanceStep {
  int hot = 0;
  int cold = 0;
  double boundary_x = 0.0;
};

class Partitioner {
 public:
  // Builds n partitions over the panel. Throws if n exceeds twice the read drive
  // count (the paper's bound on active shuttles per panel) or n < 1.
  Partitioner(const Panel& panel, int num_partitions);

  const std::vector<Partition>& partitions() const { return partitions_; }
  int size() const { return static_cast<int>(partitions_.size()); }

  // Partition owning the storage slot at (x, shelf). Every storage slot maps to
  // exactly one partition. O(log row width): a per-shelf row index finds the
  // rectangle with the largest x_min <= x; coordinates no rectangle contains
  // (x at the panel's right edge) snap to the nearest rectangle centroid.
  int PartitionOfSlot(double x, int shelf) const;

  // A convenient idle-parking position for the partition's shuttle: the centroid of
  // its storage rectangle.
  DrivePosition HomeOf(int partition) const;

  // Same-row neighbours of `partition` (same side and shelf band, rectangles
  // sharing the x-boundary). -1 when the partition sits at the row edge.
  int LeftNeighborOf(int partition) const;
  int RightNeighborOf(int partition) const;

  // Splits a quarter of the hot partition's width off and merges it into the
  // cold same-row neighbour (the shared boundary moves toward the hot side).
  // Returns false — and changes nothing — when the two are not same-row
  // neighbours or the hot rectangle is already at the minimum width. On
  // success the step is appended to rebalance_history(). Drive assignments are
  // untouched: only the storage rectangles (and thus the platter -> partition
  // map) move.
  bool ShiftBoundary(int hot, int cold);

  const std::vector<RebalanceStep>& rebalance_history() const {
    return history_;
  }

  // Checkpoint/restore: round-trips the rectangles (drive assignments included)
  // and the rebalance history. Requires a Partitioner constructed for the same
  // panel/partition count (throws on size mismatch).
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  // Row index entry: a rectangle crossing the shelf, keyed by its left edge.
  struct RowEntry {
    double x_min = 0.0;
    int index = 0;
  };
  // Rebuilds rows_ from the rectangles (after construction, ShiftBoundary,
  // and LoadState).
  void BuildRowIndex();

  std::vector<Partition> partitions_;
  // Per shelf: the rectangles covering it, sorted by x_min. Same-shelf
  // rectangles never overlap, so at most one of them contains a given x.
  std::vector<std::vector<RowEntry>> rows_;
  std::vector<RebalanceStep> history_;
  // Minimum rectangle width ShiftBoundary may leave behind. Derived from the
  // constructed grid (35% of the narrowest initial column, capped at half a
  // rack) so dense fleets with sub-0.6 m columns can still rebalance.
  double min_shift_width_m_ = 0.6;
};

}  // namespace silica

#endif  // SILICA_CORE_PARTITIONING_H_
