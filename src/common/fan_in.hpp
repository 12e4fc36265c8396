// FanIn: join N asynchronous completions into one.
//
// Hand one copy of the FanIn to each of N operations. Every call counts
// one arrival down and keeps the first error it sees; after the N-th
// arrival `done` fires exactly once, with that first error (or ok).
// Count-only joins call it with no argument. An arrival may complete
// synchronously, before its siblings are even issued: the count is set
// up front, so `done` cannot fire early.
//
// The copies share the state through a shared_ptr and `done` never
// holds a copy, so no ownership cycle forms; the state (and whatever
// `done` captured) is freed once the last copy is dropped.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "common/result.hpp"

namespace mgfs {

class FanIn {
 public:
  FanIn(std::size_t n, std::function<void(Status)> done)
      : s_(std::make_shared<State>(State{n, Status{}, std::move(done)})) {
    MGFS_ASSERT(n > 0, "fan-in over no arrivals");
  }

  void operator()(const Status& st) const {
    MGFS_ASSERT(s_->outstanding > 0, "fan-in arrival after completion");
    if (!st.ok() && s_->first_error.ok()) s_->first_error = st;
    if (--s_->outstanding > 0) return;
    auto done = std::move(s_->done);
    done(s_->first_error);
  }
  void operator()() const { (*this)(Status{}); }

 private:
  struct State {
    std::size_t outstanding;
    Status first_error;
    std::function<void(Status)> done;
  };
  std::shared_ptr<State> s_;
};

}  // namespace mgfs
