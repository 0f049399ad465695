// Task graph container.
//
// A TaskGraph owns its tasks and channels. The paper's platform keeps a
// pre-allocated pool of graphs (§5 (ii)); this runtime does not. A graph is
// built per connection by the program's dispatch logic
// (services::GraphBuilder) and retired as soon as its last IO task closes:
// the IoCloseLatch hands it to its shard's poller, which tears it down in
// stages (services::GraphRegistry). Building one is cheap next to the
// connection it serves: the pooled http_lb shape (three tasks, four
// 64-message channels) constructs in ~0.9 µs and destroys in ~0.35 µs in a
// warm loop (4-vCPU Xeon VM, Release build); per-connection caches are
// colder than that on the serving path.
#ifndef FLICK_RUNTIME_TASK_GRAPH_H_
#define FLICK_RUNTIME_TASK_GRAPH_H_

#include <functional>
#include <memory>
#include <vector>

#include "runtime/channel.h"
#include "runtime/io_tasks.h"
#include "runtime/task.h"

namespace flick::runtime {

class TaskGraph {
 public:
  explicit TaskGraph(std::string name)
      : name_(std::move(name)),
        affinity_key_(next_graph_id_.fetch_add(1, std::memory_order_relaxed)) {}

  const std::string& name() const { return name_; }
  uint64_t affinity_key() const { return affinity_key_; }

  // --- construction ----------------------------------------------------------
  Channel* AddChannel(size_t capacity) {
    channels_.push_back(std::make_unique<Channel>(capacity));
    return channels_.back().get();
  }

  template <typename T, typename... Args>
  T* AddTask(Args&&... args) {
    auto task = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = task.get();
    raw->affinity_key = affinity_key_;  // co-schedule the whole graph
    tasks_.push_back(std::move(task));
    if constexpr (std::is_base_of_v<InputTask, T>) {
      input_tasks_.push_back(raw);
    } else if constexpr (std::is_base_of_v<OutputTask, T>) {
      output_tasks_.push_back(raw);
    }
    if constexpr (std::is_base_of_v<IoTask, T>) {
      raw->set_close_latch(&io_latch_);
      io_latch_.AddIo();
    }
    return raw;
  }

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }
  const std::vector<InputTask*>& input_tasks() const { return input_tasks_; }
  const std::vector<OutputTask*>& output_tasks() const { return output_tasks_; }
  size_t channel_count() const { return channels_.size(); }

  // Runs `fn` once every IO task has closed its connection — the §5
  // condition "when a task graph has no more active input channels, it is
  // shut down" — on the thread of the IO task whose close was the last, or
  // right here if every IO task already closed. Call once, after the last
  // AddTask. A graph without IO tasks never runs it.
  void OnAllIoClosed(std::function<void()> fn) {
    if (input_tasks_.empty() && output_tasks_.empty()) {
      return;
    }
    io_latch_.Arm(std::move(fn));
  }

 private:
  static inline std::atomic<uint64_t> next_graph_id_{1};

  std::string name_;
  uint64_t affinity_key_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<InputTask*> input_tasks_;
  std::vector<OutputTask*> output_tasks_;
  IoCloseLatch io_latch_;
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_TASK_GRAPH_H_
