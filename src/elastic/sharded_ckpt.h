// Sharded (per-rank) checkpointing with reshard-on-load.
//
// The full-checkpoint path (core/serialize.h) gathers every parameter to
// every rank before writing — O(model) memory and collective traffic per
// save, unacceptable at the checkpoint frequencies elastic training wants.
// Here each rank writes ONLY what it already owns: its FlatParameter shards
// and its local Adam state shards, with enough layout metadata (per-unit
// param infos, offsets, padding) to reassemble full per-original-parameter
// tensors offline. A save is therefore collective-free and O(model/W) per
// rank.
//
// Reshard-on-load is the production story: a checkpoint set written at world
// size N is assembled into full (unpadded) per-parameter tensors and loaded
// through FsdpState::LoadFullStateDict + core::LoadFullOptimState, which
// re-pad and re-chunk for the target world size M — N != M (shrink after a
// rank loss, grow on planned scale-up), uneven tails and padding included,
// because padding is dropped at assembly and re-derived by the target
// world's FlatParamHandles.
//
// File set: `<stem>.step<S>.rank<R>-of-<N>.fsdp`, one per rank, written
// atomically (tmp + rename). The step lives in the filename so a set saved
// after resharding (different N, same stem) never aliases an older set, and
// a reader can pick the latest COMPLETE set (all N files present) —
// half-written sets from a crash mid-save are simply ignored.
//
// Format (little-endian, via core::BinaryWriter):
//   magic "FSDPSHRD" | u32 version | u32 world_size N | u32 rank |
//   i64 train_step | u32 n_units
//   per unit: str name | i64 total_numel | i64 padded_numel |
//     u32 n_params | per param { str fqn | u32 ndim | i64 dims[] |
//       i64 offset } |
//     tensor shard (padded_numel/N elements) |
//     u8 has_optim | [ i64 step | tensor exp_avg | tensor exp_avg_sq ]
//   u32 n_buffers | per buffer { str fqn | tensor }  (replicated; assembly
//     takes rank 0's copies)
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/fsdp.h"
#include "core/serialize.h"
#include "optim/optimizer.h"

namespace fsdp::elastic {

/// Filename of one rank's shard file.
std::string ShardFileName(const std::string& stem, int64_t step, int rank,
                          int world_size);

/// Writes this rank's shards (params + Adam state when `adam` is non-null)
/// to ShardFileName(stem, step, rank, world). Local-only — no collectives —
/// so ranks may save at slightly different wall-clock times; atomicity is
/// per file, completeness is judged set-wide by the readers below. Requires
/// full sharding (F == W).
Status SaveShardedCheckpoint(const std::string& stem, int64_t step,
                             core::FsdpState& state,
                             const optim::Adam* adam);

/// The largest step with a COMPLETE file set under `stem` (all world-size
/// files present, at whatever world size that set was written), or -1 when
/// none exists.
int64_t LatestShardedStep(const std::string& stem);

/// A world-size-N checkpoint set reassembled into world-size-agnostic form.
struct AssembledCheckpoint {
  core::Checkpoint full;   // per-original-parameter params + optim entries
  int world_size = 0;      // N of the writing run
  int64_t train_step = -1;
};

/// Reads all N files of the step-`step` set (pass LatestShardedStep's result
/// for "most recent") and concatenates the shards back into full padded
/// flats, then slices out the original parameters — dropping the writer
/// world's padding, so the result loads at ANY world size. Complete sets of
/// two world sizes at one step are an InvalidArgument naming both: the files
/// cannot tell which run wrote last.
Result<AssembledCheckpoint> AssembleShardedCheckpoint(const std::string& stem,
                                                      int64_t step);

/// Assemble + LoadFullStateDict (+ LoadFullOptimState when `adam` non-null):
/// the reshard-on-load path. Collective — every rank of `state`'s world must
/// call. `loaded_step` (optional) receives the set's train_step.
Status LoadShardedCheckpoint(const std::string& stem, int64_t step,
                             core::FsdpState& state, optim::Adam* adam,
                             int64_t* loaded_step = nullptr);

}  // namespace fsdp::elastic
