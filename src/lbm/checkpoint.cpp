#include "lbm/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "lbm/d3q19.hpp"

namespace hemo::lbm {

namespace {

constexpr std::uint64_t kMagic = 0x48454D4F44434B50ull;  // "HEMODCKP"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMetaTag = 0;
constexpr std::uint32_t kRankTagBase = 1;

struct Meta {
  std::int64_t step = 0;
  std::int64_t global_size = 0;
  std::int32_t n_ranks = 0;
  std::int32_t q = 0;
};

CheckpointError error(const std::string& path, const std::string& what) {
  return CheckpointError("checkpoint '" + path + "'" + what);
}

}  // namespace

void write_checkpoint(const std::string& path, std::int64_t step,
                      std::int64_t global_size, int n_ranks,
                      std::span<const RankRecord<const double>> records) {
  const Meta meta{step, global_size, n_ranks, kQ};
  io::BlobWriter writer(path, kMagic, kVersion);
  writer.add_record(kMetaTag, &meta, sizeof meta);
  for (const auto& [rank, f] : records)
    writer.add_record(kRankTagBase + static_cast<std::uint32_t>(rank),
                      f.data(), f.size_bytes());
  writer.finish();
}

std::int64_t read_checkpoint(const std::string& path,
                             std::int64_t global_size, int n_ranks,
                             std::span<const RankRecord<double>> stage) {
  io::BlobReader reader(path, kMagic, kVersion);
  if (reader.at_end()) throw error(path, " has no metadata record");
  const io::BlobRecord head = reader.next();
  Meta meta;
  if (head.tag != kMetaTag || head.bytes.size() != sizeof meta)
    throw error(path, ": first record is not valid metadata");
  std::memcpy(&meta, head.bytes.data(), sizeof meta);
  if (meta.global_size != global_size || meta.n_ranks != n_ranks ||
      meta.q != kQ)
    throw error(path, " was taken for a different solver configuration");
  if (meta.step < 0) throw error(path, ": negative step counter");

  std::vector<bool> seen(stage.size(), false);
  while (!reader.at_end()) {
    const io::BlobRecord rec = reader.next();
    if (rec.tag < kRankTagBase ||
        rec.tag - kRankTagBase >= static_cast<std::uint32_t>(n_ranks))
      throw error(path, ": unknown record tag");
    const auto rank = static_cast<int>(rec.tag - kRankTagBase);
    const auto it =
        std::find_if(stage.begin(), stage.end(),
                     [rank](const auto& s) { return s.first == rank; });
    if (it == stage.end()) continue;
    if (rec.bytes.size() != it->second.size_bytes())
      throw error(path, ": rank record size " +
                            std::to_string(rec.bytes.size()) +
                            " does not match this decomposition");
    std::copy(rec.bytes.begin(), rec.bytes.end(),
              reinterpret_cast<char*>(it->second.data()));
    seen[static_cast<std::size_t>(it - stage.begin())] = true;
  }
  for (std::size_t k = 0; k < stage.size(); ++k)
    if (!seen[k])
      throw error(path, ": no record for rank " +
                            std::to_string(stage[k].first));
  return meta.step;
}

}  // namespace hemo::lbm
