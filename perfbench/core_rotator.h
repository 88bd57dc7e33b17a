// Moves the benchmark's threads round the CPUs the process may run on.
//
// On a shared host each core slows down and speeds up on its own, for
// seconds at a time, as other tenants' work comes and goes on the same
// physical core. A thread that stays on one core carries that core's
// phase into the run's result, and the next run may sit on a core in the
// opposite phase. Rotating every thread one CPU along every kRotateSeconds
// makes each run sample every core alike, which averages the cores' phases
// instead of picking one.
#ifndef PERFBENCH_CORE_ROTATOR_H_
#define PERFBENCH_CORE_ROTATOR_H_

#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

namespace perfbench {

class CoreRotator {
 public:
  static constexpr double kRotateSeconds = 0.125;

  CoreRotator() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }

  ~CoreRotator() { Release(); }

  CoreRotator(const CoreRotator&) = delete;
  CoreRotator& operator=(const CoreRotator&) = delete;

  /// Rotates when kRotateSeconds have passed since the last rotation.
  void Tick() {
    if (std::chrono::steady_clock::now() - last_ >=
        std::chrono::duration<double>(kRotateSeconds)) {
      Rotate();
    }
  }

  /// Pins the i-th thread of the process (by thread id) to allowed CPU
  /// i + step, then advances the step. Threads the process starts later
  /// inherit their creator's CPU until the next rotation.
  void Rotate() {
    last_ = std::chrono::steady_clock::now();
    if (cpus_.size() < 2) return;
    const std::vector<pid_t> threads = Threads();
    for (size_t i = 0; i < threads.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[(i + step_) % cpus_.size()], &one);
      sched_setaffinity(threads[i], sizeof(one), &one);
    }
    ++step_;
  }

  /// Lets every thread run on every allowed CPU again.
  void Release() {
    if (cpus_.size() < 2) return;
    for (pid_t tid : Threads()) sched_setaffinity(tid, sizeof(allowed_), &allowed_);
  }

 private:
  static std::vector<pid_t> Threads() {
    std::vector<pid_t> out;
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return out;
    while (const dirent* e = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid > 0) out.push_back(tid);
    }
    closedir(dir);
    std::sort(out.begin(), out.end());
    return out;
  }

  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t step_ = 0;
  std::chrono::steady_clock::time_point last_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_CORE_ROTATOR_H_
