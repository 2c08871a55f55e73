#pragma once
// The one on-disk checkpoint format of the solvers: a CRC-checked io::Blob
// ("HEMODCKP", version 1).  Record 0 is the metadata; record 1 + r holds
// rank r's distribution array, q-major over its local points (owned
// points first, then ghosts), so a restore reproduces the stepping
// bit-for-bit.  lbm::Solver writes what a 1-rank harvey::DistributedSolver
// writes: that rank's local order is the global order and it has no
// ghosts, so its record is the canonical snapshot and a file restores
// from either solver into the other.

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "io/blob.hpp"

namespace hemo::lbm {

/// A checkpoint that cannot be opened or written, fails its CRC or size
/// checks, or was taken for another lattice or rank count.  Restore never
/// aborts the process on bad input: campaigns catch this and fall back to
/// a cold start.
using CheckpointError = io::BlobError;

/// One rank's distribution array: the rank id and its kQ * local values.
template <typename T>
using RankRecord = std::pair<int, std::span<T>>;

/// Writes the metadata (step counter, lattice size, rank count) and one
/// record per entry of `records`, atomically (io::BlobWriter's .tmp +
/// rename).
void write_checkpoint(const std::string& path, std::int64_t step,
                      std::int64_t global_size, int n_ranks,
                      std::span<const RankRecord<const double>> records);

/// Reads a checkpoint taken at `global_size` points over `n_ranks` ranks
/// and copies the record of each rank in `stage` into its buffer, whose
/// size the record must match.  Every record is validated, so on a throw
/// only the staging buffers may have changed.  Returns the step counter.
std::int64_t read_checkpoint(const std::string& path,
                             std::int64_t global_size, int n_ranks,
                             std::span<const RankRecord<double>> stage);

}  // namespace hemo::lbm
