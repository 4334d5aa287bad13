#include "elastic/rendezvous.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdp::elastic {

RendezvousStore::RendezvousStore() : RendezvousStore(Options()) {}

RendezvousStore::RendezvousStore(Options opts) : opts_(std::move(opts)) {}

int64_t RendezvousStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_generation_;
}

void RendezvousStore::Finalize(Round& round) {
  const int world = static_cast<int>(round.joiners.size());
  // Survivors first, keeping their previous relative order (sorted by old
  // rank); fresh joiners (-1) take the highest ranks in arrival order.
  std::vector<int> order(round.joiners.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const int ra = round.joiners[static_cast<size_t>(a)];
    const int rb = round.joiners[static_cast<size_t>(b)];
    if ((ra >= 0) != (rb >= 0)) return ra >= 0;  // survivors before joiners
    return ra >= 0 ? ra < rb : false;            // joiners keep arrival order
  });
  round.new_ranks.assign(round.joiners.size(), -1);
  round.view.members.assign(round.joiners.size(), -1);
  for (int new_rank = 0; new_rank < world; ++new_rank) {
    const int ticket = order[static_cast<size_t>(new_rank)];
    round.new_ranks[static_cast<size_t>(ticket)] = new_rank;
    round.view.members[static_cast<size_t>(new_rank)] =
        round.joiners[static_cast<size_t>(ticket)];
  }
  round.view.generation = ++completed_generation_;
  round.view.world_size = world;
  round.view.mesh = std::make_shared<comm::DeviceMesh>(world, world);
  if (opts_.watchdog_ms > 0) round.view.mesh->SetDefaultTimeout(opts_.watchdog_ms);
  round.view.mesh->SetDesyncDetection(true);
  if (opts_.post_build) opts_.post_build(*round.view.mesh, round.view.generation);
  round.finalized = true;
}

Result<WorldView> RendezvousStore::Join(int old_rank, int expected,
                                        int64_t min_generation) {
  if (expected <= 0) {
    return Status::Invalid("rendezvous expects a positive participant count");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (min_generation > 0) {
    cv_.wait(lock,
             [&] { return completed_generation_ + 1 >= min_generation; });
  }
  if (!current_) {
    current_ = std::make_shared<Round>();
    current_->expected = expected;
    current_->deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(
            static_cast<int64_t>(opts_.join_timeout_ms * 1000));
  } else if (current_->expected != expected) {
    return Status::Invalid(
        "rendezvous expectation mismatch: the open round expects " +
        std::to_string(current_->expected) + " participants, this joiner " +
        std::to_string(expected));
  }
  std::shared_ptr<Round> round = current_;
  const size_t ticket = round->joiners.size();
  round->joiners.push_back(old_rank);

  if (static_cast<int>(round->joiners.size()) == round->expected) {
    // Full house: this joiner finalizes immediately.
    Finalize(*round);
    current_.reset();
    cv_.notify_all();
  }
  while (!round->finalized) {
    if (cv_.wait_until(lock, round->deadline) == std::cv_status::timeout &&
        !round->finalized) {
      // Deadline: form the world with whoever made it. The first waiter to
      // notice finalizes; stragglers arriving after this start a new round.
      Finalize(*round);
      if (current_ == round) current_.reset();
      cv_.notify_all();
    }
  }
  WorldView view = round->view;
  view.rank = round->new_ranks[ticket];
  return view;
}

Result<WorldView> ElasticAgent::Join(int old_rank, int expected,
                                     int64_t min_generation) {
  obs::MetricsRegistry::Get().GetCounter("elastic.rendezvous").Add();
  FSDP_TRACE_SPAN(kMarker, "rendezvous", "elastic");
  Result<WorldView> view = store_.Join(old_rank, expected, min_generation);
  if (!view.ok()) {
    obs::MetricsRegistry::Get().GetCounter("elastic.joins_failed").Add();
  }
  return view;
}

}  // namespace fsdp::elastic
