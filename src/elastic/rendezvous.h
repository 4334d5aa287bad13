// Elastic world (re)formation: a generation-numbered rendezvous.
//
// The fault layer (PR 4) makes rank loss *detectable*: the watchdog aborts
// the communicator and every survivor's train step returns a sticky error.
// This module makes the world *re-formable*. RendezvousStore is the
// in-process control plane — the analogue of torchelastic's TCPStore-backed
// rendezvous — that surviving rank threads (and fresh joiners, on planned
// scale-up) call into to agree on the next world:
//
//   * each participant calls Join(old_rank, expected): the first joiner of a
//     round pins the expected participant count and starts the deadline;
//   * the round FINALIZES when `expected` participants joined, or when the
//     deadline expires — then with whoever made it (the elastic-agent
//     answer to "the watchdog names one culprit but two ranks died": nobody
//     has to know the exact survivor set up front, stragglers are simply
//     fenced out by the deadline);
//   * finalization assigns new ranks — survivors keep their relative order
//     (sorted by old rank), fresh joiners (old_rank = -1) take the highest
//     ranks in arrival order — bumps the generation number, and builds ONE
//     fresh full-shard DeviceMesh(W, W) (fresh communicators: the old ones
//     are poisoned and unrecoverable by design) shared by all members of
//     the round. Like every mesh it is one abort domain, as recovery
//     requires: any rank loss tears down the whole world.
//
// ElasticAgent is the per-rank wrapper that stamps elastic.* metrics and
// recovery trace spans around Join.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/process_group.h"
#include "common/status.h"

namespace fsdp::elastic {

/// One agreed-upon world: who is in it, numbered how, over which mesh.
struct WorldView {
  int64_t generation = 0;
  int world_size = 0;
  int rank = -1;  // the caller's rank in this world
  /// new rank -> previous-world rank (-1 for fresh joiners).
  std::vector<int> members;
  std::shared_ptr<comm::DeviceMesh> mesh;  // DeviceMesh(world_size, world_size)
};

class RendezvousStore {
 public:
  struct Options {
    /// Deadline for a round: once the first participant joined, the round
    /// finalizes with whoever arrived within this window (when the expected
    /// count isn't reached first).
    double join_timeout_ms = 2000;
    /// Watchdog default timeout applied to every fresh mesh (0 = off).
    /// Every fresh mesh also checks desync: a rank that skips or reorders a
    /// collective is named at once instead of after a watchdog timeout.
    double watchdog_ms = 0;
    /// Called once per round on the freshly built mesh (fault-drill
    /// injection point).
    std::function<void(comm::DeviceMesh&, int64_t generation)> post_build;
  };

  RendezvousStore();  // default Options
  explicit RendezvousStore(Options opts);

  /// Joins the next round. `old_rank` is the caller's rank in the previous
  /// world (-1 for a fresh joiner); `expected` the participant count this
  /// caller believes in — the first joiner pins it, and a mismatching later
  /// joiner gets Invalid (split-brain guard). `min_generation` > 0 parks the
  /// caller until the round that would produce that generation opens (fresh
  /// joiners use it to sit out earlier rounds). Returns the finalized view,
  /// or Internal when the deadline passed with nobody to form a world with.
  Result<WorldView> Join(int old_rank, int expected,
                         int64_t min_generation = 0);

  /// Generation of the most recently finalized round (0 before the first).
  int64_t generation() const;

 private:
  struct Round {
    int expected = 0;
    std::chrono::steady_clock::time_point deadline;
    std::vector<int> joiners;  // old ranks, in arrival order
    std::vector<int> new_ranks;  // arrival index -> assigned new rank
    bool finalized = false;
    WorldView view;            // rank field unset (per-caller)
  };

  /// Finalizes `round` (caller holds mu_): assigns ranks, builds the mesh,
  /// bumps the generation.
  void Finalize(Round& round);

  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Round> current_;   // open round, nullptr between rounds
  int64_t completed_generation_ = 0;
};

/// Per-rank façade over the store: counts elastic.rendezvous /
/// elastic.joins_failed, traces the join as an "elastic"-lane span.
class ElasticAgent {
 public:
  explicit ElasticAgent(RendezvousStore& store) : store_(store) {}

  Result<WorldView> Join(int old_rank, int expected,
                         int64_t min_generation = 0);

 private:
  RendezvousStore& store_;
};

}  // namespace fsdp::elastic
