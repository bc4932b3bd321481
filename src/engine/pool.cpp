#include "engine/pool.hpp"

#include <optional>

namespace bsmp::engine {

int Pool::hardware_threads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

Pool::Pool(int threads)
    : size_(threads <= 0 ? hardware_threads() : threads), sched_(size_) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 1; i < size_; ++i)
    workers_.emplace_back([this, i] { sched_.serve(i); });
}

Pool::~Pool() {
  sched_.stop();
  for (auto& w : workers_) w.join();
}

void Pool::parallel_for(std::size_t n,
                        const std::function<void(std::size_t)>& body) {
  // A pool thread forks from its own slot; any other thread takes
  // slot 0 for the call (throwing if another thread holds it).
  std::optional<TaskScheduler::Bind> bind;
  if (TaskScheduler::current() != &sched_) bind.emplace(&sched_, 0);
  TaskScope scope;
  for (std::size_t i = 0; i < n; ++i) scope.fork([&body, i] { body(i); });
  scope.join();
}

}  // namespace bsmp::engine
