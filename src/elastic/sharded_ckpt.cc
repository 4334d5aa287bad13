#include "elastic/sharded_ckpt.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <vector>

namespace fsdp::elastic {

namespace {

constexpr char kMagic[8] = {'F', 'S', 'D', 'P', 'S', 'H', 'R', 'D'};
constexpr uint32_t kVersion = 1;

/// One original parameter's placement inside a unit's flat layout.
struct ParamMeta {
  std::string fqn;
  Shape shape;
  int64_t offset = 0;
};

struct UnitShard {
  std::string name;
  int64_t total_numel = 0;
  int64_t padded_numel = 0;
  std::vector<ParamMeta> params;
  Tensor shard;  // this rank's chunk (padded_numel / N elements)
  bool has_optim = false;
  int64_t optim_step = 0;
  Tensor avg_shard;
  Tensor sq_shard;
};

struct ShardFile {
  int world_size = 0;
  int rank = -1;
  int64_t train_step = -1;
  std::vector<UnitShard> units;
  std::vector<std::pair<std::string, Tensor>> buffers;
};

Result<ShardFile> ReadShardFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::IOError("cannot open " + path);
  core::BinaryReader r(f);
  char magic[8];
  r.Raw(magic, 8);
  if (!r.ok() || std::memcmp(magic, kMagic, 8) != 0) {
    std::fclose(f);
    return Status::Invalid(path + " is not an FSDP sharded checkpoint");
  }
  const uint32_t version = r.U32();
  if (version != kVersion) {
    std::fclose(f);
    return Status::Invalid("unsupported sharded checkpoint version " +
                           std::to_string(version));
  }
  ShardFile out;
  out.world_size = static_cast<int>(r.U32());
  out.rank = static_cast<int>(r.U32());
  out.train_step = r.I64();
  const uint32_t n_units = r.U32();
  for (uint32_t u = 0; u < n_units && r.ok(); ++u) {
    UnitShard unit;
    unit.name = r.Str();
    unit.total_numel = r.I64();
    unit.padded_numel = r.I64();
    const uint32_t n_params = r.U32();
    for (uint32_t p = 0; p < n_params && r.ok(); ++p) {
      ParamMeta meta;
      meta.fqn = r.Str();
      const uint32_t ndim = r.U32();
      if (!r.ok() || ndim > 8) {
        std::fclose(f);
        return Status::Invalid("corrupt sharded checkpoint " + path);
      }
      for (uint32_t d = 0; d < ndim; ++d) meta.shape.push_back(r.I64());
      meta.offset = r.I64();
      unit.params.push_back(std::move(meta));
    }
    unit.shard = r.TensorData();
    unit.has_optim = r.U8() != 0;
    if (unit.has_optim) {
      unit.optim_step = r.I64();
      unit.avg_shard = r.TensorData();
      unit.sq_shard = r.TensorData();
    }
    out.units.push_back(std::move(unit));
  }
  const uint32_t n_buffers = r.U32();
  for (uint32_t b = 0; b < n_buffers && r.ok(); ++b) {
    std::string fqn = r.Str();
    Tensor t = r.TensorData();
    if (r.ok()) out.buffers.emplace_back(std::move(fqn), t);
  }
  const bool read_ok = r.ok();
  std::fclose(f);
  if (!read_ok) return Status::IOError("truncated sharded checkpoint " + path);
  return out;
}

/// Splits `stem` into (directory, basename prefix) for file-set scans.
void SplitStem(const std::string& stem, std::filesystem::path* dir,
               std::string* base) {
  const std::filesystem::path p(stem);
  *dir = p.parent_path();
  if (dir->empty()) *dir = ".";
  *base = p.filename().string();
}

/// Parses "<base>.step<S>.rank<R>-of-<N>.fsdp"; returns false on mismatch.
bool ParseShardName(const std::string& name, const std::string& base,
                    int64_t* step, int* rank, int* world) {
  if (name.size() <= base.size() || name.compare(0, base.size(), base) != 0) {
    return false;
  }
  long long s = -1;
  int r = -1, n = -1, consumed = 0;
  const std::string tail = name.substr(base.size());
  if (std::sscanf(tail.c_str(), ".step%lld.rank%d-of-%d.fsdp%n", &s, &r, &n,
                  &consumed) != 3 ||
      consumed != static_cast<int>(tail.size())) {
    return false;
  }
  *step = s;
  *rank = r;
  *world = n;
  return true;
}

/// Per-step view of a file-set scan: the world size(s) seen and the ranks
/// present for each.
using SetScan = std::map<int64_t, std::map<int, std::set<int>>>;

SetScan ScanShardSets(const std::string& stem) {
  std::filesystem::path dir;
  std::string base;
  SplitStem(stem, &dir, &base);
  SetScan scan;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    int64_t step = -1;
    int rank = -1, world = 0;
    if (ParseShardName(entry.path().filename().string(), base, &step, &rank,
                       &world)) {
      scan[step][world].insert(rank);
    }
  }
  return scan;
}

/// The world sizes whose set at one step has every rank's file, ascending.
std::vector<int> CompleteWorlds(const std::map<int, std::set<int>>& worlds) {
  std::vector<int> out;
  for (const auto& [world, ranks] : worlds) {
    if (static_cast<int>(ranks.size()) == world && *ranks.begin() == 0 &&
        *ranks.rbegin() == world - 1) {
      out.push_back(world);
    }
  }
  return out;
}

/// Checks unit `u` of an N-file set before anything is allocated or sliced
/// from it: header values come straight from disk, so a corrupt size,
/// offset or dim must become a Status, not a giant allocation or a failed
/// slice check.
Status CheckUnitLayout(const std::vector<ShardFile>& files, size_t u) {
  const UnitShard& proto = files[0].units[u];
  const int64_t world = static_cast<int64_t>(files.size());
  if (proto.padded_numel < 0 || proto.padded_numel % world != 0) {
    return Status::Invalid("unit '" + proto.name + "' padded size " +
                           std::to_string(proto.padded_numel) +
                           " is not divisible by the writer world size");
  }
  const int64_t chunk = proto.padded_numel / world;
  for (const ShardFile& file : files) {
    const UnitShard& unit = file.units[u];
    if (unit.name != proto.name || unit.padded_numel != proto.padded_numel ||
        unit.shard.numel() != chunk) {
      return Status::Invalid("unit '" + proto.name +
                             "' layout mismatch across ranks");
    }
    if (unit.has_optim &&
        (unit.avg_shard.numel() != chunk || unit.sq_shard.numel() != chunk)) {
      return Status::Invalid("optimizer shard size mismatch in unit '" +
                             proto.name + "'");
    }
  }
  for (const ParamMeta& p : proto.params) {
    const std::string where = "param '" + p.fqn + "' of unit '" + proto.name +
                              "' (offset " + std::to_string(p.offset) +
                              ", padded numel " +
                              std::to_string(proto.padded_numel) + ")";
    if (p.offset < 0 || p.offset > proto.padded_numel) {
      return Status::Invalid(where + " starts outside the flat");
    }
    // numel <= room throughout, so the product cannot overflow.
    const int64_t room = proto.padded_numel - p.offset;
    int64_t numel = 1;
    for (int64_t d : p.shape) {
      if (d < 0) return Status::Invalid(where + " has a negative dim");
      if (d > 0 && numel > room / d) {
        return Status::Invalid(where + " runs past the end of the flat");
      }
      numel *= d;
    }
    // A 0-d param still takes one element.
    if (numel > room) {
      return Status::Invalid(where + " runs past the end of the flat");
    }
  }
  return Status::OK();
}

}  // namespace

std::string ShardFileName(const std::string& stem, int64_t step, int rank,
                          int world_size) {
  return stem + ".step" + std::to_string(step) + ".rank" +
         std::to_string(rank) + "-of-" + std::to_string(world_size) + ".fsdp";
}

Status SaveShardedCheckpoint(const std::string& stem, int64_t step,
                             core::FsdpState& state,
                             const optim::Adam* adam) {
  const int world = state.world_size();
  for (int u = 0; u < state.num_units(); ++u) {
    if (state.unit_handle(u).shard_pg().size() != world) {
      return Status::Invalid(
          "sharded checkpointing requires full sharding (F == W); unit '" +
          state.unit_name(u) + "' is sharded over " +
          std::to_string(state.unit_handle(u).shard_pg().size()) + " of " +
          std::to_string(world) + " ranks");
    }
  }
  const std::string path = ShardFileName(stem, step, state.rank(), world);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::IOError("cannot open " + tmp + " for writing");
  core::BinaryWriter w(f);
  w.Raw(kMagic, 8);
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(world));
  w.U32(static_cast<uint32_t>(state.rank()));
  w.I64(step);
  w.U32(static_cast<uint32_t>(state.num_units()));
  for (int u = 0; u < state.num_units(); ++u) {
    core::FlatParamHandle& handle = state.unit_handle(u);
    w.Str(state.unit_name(u));
    w.I64(handle.total_numel());
    w.I64(handle.padded_numel());
    w.U32(static_cast<uint32_t>(handle.params().size()));
    for (const core::ParamInfo& p : handle.params()) {
      w.Str(p.fqn);
      w.U32(static_cast<uint32_t>(p.shape.size()));
      for (int64_t d : p.shape) w.I64(d);
      w.I64(p.offset);
    }
    w.TensorData(handle.sharded_param());
    optim::Adam::StateView sv;
    if (adam) sv = adam->GetState(static_cast<size_t>(u));
    w.U8(sv.initialized ? 1 : 0);
    if (sv.initialized) {
      w.I64(sv.step);
      w.TensorData(sv.exp_avg);
      w.TensorData(sv.exp_avg_sq);
    }
  }
  const auto buffers = state.module().NamedBuffers();
  w.U32(static_cast<uint32_t>(buffers.size()));
  for (const auto& [fqn, slot] : buffers) {
    w.Str(fqn);
    w.TensorData(*slot);
  }
  const bool write_ok = w.ok();
  if (std::fclose(f) != 0 || !write_ok) {
    std::remove(tmp.c_str());
    return Status::IOError("failed writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("failed renaming " + tmp + " to " + path);
  }
  return Status::OK();
}

int64_t LatestShardedStep(const std::string& stem) {
  int64_t latest = -1;
  for (const auto& [step, worlds] : ScanShardSets(stem)) {
    if (!CompleteWorlds(worlds).empty()) latest = std::max(latest, step);
  }
  return latest;
}

Result<AssembledCheckpoint> AssembleShardedCheckpoint(const std::string& stem,
                                                      int64_t step) {
  const SetScan scan = ScanShardSets(stem);
  const auto it = scan.find(step);
  const std::vector<int> complete =
      it == scan.end() ? std::vector<int>{} : CompleteWorlds(it->second);
  if (complete.empty()) {
    return Status::IOError("no complete sharded checkpoint set for " + stem +
                           " at step " + std::to_string(step));
  }
  if (complete.size() > 1) {
    // Nothing on disk says which run wrote last; loading either could
    // silently resume from a stale run.
    std::string sets;
    for (int w : complete) {
      sets += (sets.empty() ? "" : " and ") + ShardFileName(stem, step, 0, w) +
              " (" + std::to_string(w) + " files)";
    }
    return Status::Invalid("sharded checkpoint " + stem + " holds " +
                           std::to_string(complete.size()) +
                           " complete sets at step " + std::to_string(step) +
                           ": " + sets + "; remove the stale one");
  }
  const int world = complete[0];
  std::vector<ShardFile> files;
  files.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    auto file = ReadShardFile(ShardFileName(stem, step, r, world));
    FSDP_RETURN_NOT_OK(file.status());
    if (file->world_size != world || file->rank != r ||
        file->train_step != step) {
      return Status::Invalid("sharded checkpoint header mismatch in " +
                             ShardFileName(stem, step, r, world));
    }
    if (r > 0 && file->units.size() != files[0].units.size()) {
      return Status::Invalid("sharded checkpoint unit-count mismatch across "
                             "ranks for " + stem);
    }
    files.push_back(std::move(*file));
  }

  AssembledCheckpoint out;
  out.world_size = world;
  out.train_step = step;
  for (size_t u = 0; u < files[0].units.size(); ++u) {
    FSDP_RETURN_NOT_OK(CheckUnitLayout(files, u));
    const UnitShard& proto = files[0].units[u];
    const int64_t chunk = proto.padded_numel / world;
    // Concatenate the N shards back into the writer world's padded flats.
    Tensor flat = Tensor::Empty({proto.padded_numel});
    Tensor flat_avg, flat_sq;
    bool optim = true;
    int64_t optim_step = 0;
    for (int r = 0; r < world; ++r) {
      const UnitShard& unit = files[static_cast<size_t>(r)].units[u];
      std::memcpy(flat.data() + r * chunk, unit.shard.data(),
                  static_cast<size_t>(chunk) * 4);
      optim = optim && unit.has_optim;
    }
    if (optim) {
      flat_avg = Tensor::Empty({proto.padded_numel});
      flat_sq = Tensor::Empty({proto.padded_numel});
      for (int r = 0; r < world; ++r) {
        const UnitShard& unit = files[static_cast<size_t>(r)].units[u];
        std::memcpy(flat_avg.data() + r * chunk, unit.avg_shard.data(),
                    static_cast<size_t>(chunk) * 4);
        std::memcpy(flat_sq.data() + r * chunk, unit.sq_shard.data(),
                    static_cast<size_t>(chunk) * 4);
        optim_step = std::max(optim_step, unit.optim_step);
      }
    }
    // Slice out the original parameters — the writer world's padding is
    // dropped here, which is what makes the result world-size-agnostic.
    for (const ParamMeta& p : proto.params) {
      out.full.state_dict.emplace_back(
          p.fqn, flat.SliceView(p.offset, p.shape).Clone());
      if (optim) {
        core::FullOptimEntry e;
        e.fqn = p.fqn;
        e.exp_avg = flat_avg.SliceView(p.offset, p.shape).Clone();
        e.exp_avg_sq = flat_sq.SliceView(p.offset, p.shape).Clone();
        e.step = optim_step;
        out.full.optim_state.push_back(std::move(e));
      }
    }
  }
  // Buffers are replicated; rank 0's copies stand for the set.
  for (const auto& [fqn, tensor] : files[0].buffers) {
    out.full.state_dict.emplace_back(fqn, tensor);
  }
  return out;
}

Status LoadShardedCheckpoint(const std::string& stem, int64_t step,
                             core::FsdpState& state, optim::Adam* adam,
                             int64_t* loaded_step) {
  auto assembled = AssembleShardedCheckpoint(stem, step);
  FSDP_RETURN_NOT_OK(assembled.status());
  state.LoadFullStateDict(assembled->full.state_dict);
  if (adam && !assembled->full.optim_state.empty()) {
    core::LoadFullOptimState(state, *adam, assembled->full.optim_state);
  }
  if (loaded_step) *loaded_step = assembled->train_step;
  return Status::OK();
}

}  // namespace fsdp::elastic
