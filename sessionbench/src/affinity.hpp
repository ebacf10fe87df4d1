// Rotates the producer thread over the CPUs the process may use.
//
// On a shared host each CPU goes through its own multi-second spells of
// cache contention from other tenants. A run that stays on one CPU
// inherits that CPU's spell; pinning successive repetitions to successive
// CPUs makes every run sample all of them. The thread is pinned only
// after the Session is built, so shard workers — created in the
// constructor — keep the full CPU set, and the full set is restored
// when the pin goes out of scope.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <cstddef>
#include <vector>

namespace sessionbench {

// The process's allowed CPUs, read once.
class CpuRotation {
 public:
  static const CpuRotation& get() {
    static const CpuRotation rotation;
    return rotation;
  }

  // Pins the calling thread to the k-th allowed CPU (mod their count)
  // until destroyed. Does nothing when the CPU set is unknown.
  class Pin {
   public:
    explicit Pin(std::size_t k) : r_(get()) {
      if (r_.cpus_.empty()) return;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(r_.cpus_[k % r_.cpus_.size()], &one);
      pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
    }
    ~Pin() {
      if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof r_.all_, &r_.all_);
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    const CpuRotation& r_;
    bool pinned_ = false;
  };

 private:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (pthread_getaffinity_np(pthread_self(), sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }

  cpu_set_t all_;
  std::vector<int> cpus_;
};

}  // namespace sessionbench
