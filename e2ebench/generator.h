// The benchmark's load generator: one client endpoint that keeps a fixed
// number of requests outstanding (a closed loop, `depth` in flight),
// multiplexed over the single connection per replica that its host
// net::TcpCluster opens. Every completed operation is recorded into a
// per-key verify::History, and every acknowledged increment into a per-key
// count, so the run can be checked twice after the window: per-key counter
// linearizability, and conservation (a final read of each key must equal
// the increments the generator saw acknowledged).
//
// Phases, each started from the control thread and executed on the
// client's own executor (via a zero-delay timer, so they serialize with the
// reply handler):
//   preload   one update and one read of every key, in key order;
//   load      the workload's seeded mix until stop_issuing();
//   readback  one read of every key, rotating the replica by key index.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/wire.h"
#include "kv/shard.h"
#include "net/context.h"
#include "rsm/client_msg.h"
#include "verify/history.h"
#include "workload.h"

namespace e2e {

// A readback value that disagrees with the acknowledged-increment count.
struct Mismatch {
  std::uint32_t key = 0;
  std::uint64_t read = 0;
  std::uint64_t expected = 0;
};

class ClosedLoopClient final : public lsr::net::Endpoint {
 public:
  enum class Phase : int { kIdle, kPreload, kLoad, kReadback };

  static constexpr std::size_t kMaxDepth = 64;
  // Load-phase key indices kept for the traced run's key-lookup replay.
  static constexpr std::size_t kMaxKeyTrace = 1u << 20;
  static constexpr std::size_t kUnmeasured = ~std::size_t{0};

  // Latencies are kept per slice of the measured window: `slices` slices
  // of `slice_ns` each, counted from measure_from().
  ClosedLoopClient(lsr::net::Context& ctx, const Workload& workload,
                   const std::vector<std::string>& keys, std::uint64_t seed,
                   std::size_t depth, std::size_t slices, lsr::TimeNs slice_ns)
      : ctx_(ctx),
        workload_(workload),
        keys_(keys),
        depth_(std::min(depth, kMaxDepth)),
        rng_(seed),
        zipf_(keys.size(), workload.zipf_theta > 0 ? workload.zipf_theta : 0.0),
        slice_ns_(slice_ns),
        histories_(keys.size()),
        acked_(keys.size(), 0),
        read_ns_(slices),
        update_ns_(slices) {
    lsr::Encoder one;
    one.put_u64(1);
    increment_args_ = std::move(one).take();
  }

  // ---- control thread ----

  // Starts `phase` once the previous one is idle (see wait_idle).
  void begin(Phase phase) {
    {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      idle_ = false;
    }
    ctx_.set_timer(0, 0, [this, phase] {
      phase_ = phase;
      cursor_ = 0;
      issuing_.store(true);
      for (std::size_t s = 0; s < depth_; ++s)
        if (!slots_[s].busy && !submit(slots_[s])) break;
      signal_if_idle();
    });
  }

  // Ends the open-ended load phase: in-flight requests complete, nothing
  // new is submitted.
  void stop_issuing() { issuing_.store(false); }

  // Waits until the current phase has nothing left to submit and nothing in
  // flight. False on timeout (the requests still outstanding then are
  // reported as failed).
  bool wait_idle(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(idle_mutex_);
    return idle_cv_.wait_for(lock, timeout, [this] { return idle_; });
  }

  // Latencies of load requests sent from `t` (client clock) on are
  // recorded into the slice of their send time; throughput is taken from
  // completed() snapshots.
  void measure_from(lsr::TimeNs t) { measure_from_.store(t); }
  lsr::TimeNs now() const { return ctx_.now(); }

  std::uint64_t completed() const { return completed_.load(); }
  std::uint64_t submitted() const { return submitted_.load(); }
  std::uint64_t in_flight() const { return in_flight_.load(); }
  std::uint64_t frames_received() const { return frames_received_.load(); }

  // Threads that ran this endpoint's code (its executor and its host's
  // reactor): the generator's CPU is theirs.
  std::vector<pthread_t> threads() const {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    return threads_;
  }

  // ---- after the host stopped (no handler runs concurrently) ----

  const std::vector<lsr::verify::History>& histories() const {
    return histories_;
  }
  std::uint64_t updates_acked() const { return updates_acked_; }
  std::uint64_t reads_answered() const { return reads_answered_; }
  const std::vector<Mismatch>& mismatches() const { return mismatches_; }
  // Per slice of the measured window, in ns.
  std::vector<std::vector<std::uint32_t>>& read_latencies_ns() {
    return read_ns_;
  }
  std::vector<std::vector<std::uint32_t>>& update_latencies_ns() {
    return update_ns_;
  }
  const std::vector<std::uint32_t>& load_keys() const { return load_keys_; }

  // ---- Endpoint ----

  int lane_of(lsr::ByteSpan) const override {
    register_thread();
    return 0;
  }

  void on_message(lsr::NodeId, lsr::ByteSpan data) override {
    register_thread();
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    lsr::kv::EnvelopeView env;
    if (!lsr::kv::peek_envelope(data, env)) return;
    lsr::Decoder dec(env.inner, env.inner_size);
    lsr::RequestId request = 0;
    std::uint64_t value = 0;
    try {
      const std::uint8_t tag = dec.get_u8();
      if (tag == static_cast<std::uint8_t>(lsr::rsm::ClientTag::kUpdateDone)) {
        request = lsr::rsm::UpdateDone::decode(dec).request;
      } else if (tag ==
                 static_cast<std::uint8_t>(lsr::rsm::ClientTag::kQueryDone)) {
        const auto done = lsr::rsm::QueryDone::decode(dec);
        request = done.request;
        lsr::Decoder result(done.result);
        value = result.get_u64();
      } else {
        return;
      }
    } catch (const lsr::WireError&) {
      return;
    }
    Slot* slot = nullptr;
    for (std::size_t s = 0; s < depth_; ++s)
      if (slots_[s].busy && slots_[s].request == request) slot = &slots_[s];
    if (slot == nullptr) return;  // not ours, or a duplicate reply
    complete(*slot, ctx_.now(), value);
    if (!submit(*slot)) signal_if_idle();
  }

 private:
  struct Slot {
    bool busy = false;
    bool update = false;
    std::size_t slice = kUnmeasured;
    Phase phase = Phase::kIdle;
    std::uint32_t key = 0;
    lsr::RequestId request = 0;
    lsr::TimeNs invoke = 0;
  };

  void register_thread() const {
    thread_local const void* registered = nullptr;
    if (registered == this) return;
    registered = this;
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads_.push_back(::pthread_self());
  }

  lsr::NodeId spread_target(std::uint64_t index) const {
    return workload_.targeting == Targeting::kPinned
               ? 0
               : static_cast<lsr::NodeId>(index % workload_.replicas);
  }

  // Picks the phase's next operation into `slot` and sends it; false (and
  // the slot freed) when the phase has nothing more to submit.
  bool submit(Slot& slot) {
    lsr::NodeId target = 0;
    switch (phase_) {
      case Phase::kPreload:
        if (cursor_ >= 2 * keys_.size()) return release(slot);
        slot.key = static_cast<std::uint32_t>(cursor_ / 2);
        slot.update = cursor_ % 2 == 0;
        target = spread_target(slot.key);
        ++cursor_;
        break;
      case Phase::kLoad:
        if (!issuing_.load()) return release(slot);
        slot.key = static_cast<std::uint32_t>(
            workload_.zipf_theta > 0 ? zipf_.next(rng_)
                                     : rng_.next_below(keys_.size()));
        slot.update = !rng_.next_bool(workload_.read_ratio);
        target = spread_target(cursor_++);
        if (load_keys_.size() < kMaxKeyTrace) load_keys_.push_back(slot.key);
        break;
      case Phase::kReadback:
        if (cursor_ >= keys_.size()) return release(slot);
        slot.key = static_cast<std::uint32_t>(cursor_++);
        slot.update = false;
        target = static_cast<lsr::NodeId>(slot.key % workload_.replicas);
        break;
      case Phase::kIdle:
        return release(slot);
    }
    if (!slot.busy) {
      slot.busy = true;
      in_flight_.fetch_add(1);
    }
    slot.phase = phase_;
    slot.request = lsr::make_request_id(ctx_.self(), ++request_counter_);
    slot.invoke = ctx_.now();
    slot.slice = kUnmeasured;
    const lsr::TimeNs from = measure_from_.load();
    if (phase_ == Phase::kLoad && slot.invoke >= from) {
      const auto slice = static_cast<std::size_t>((slot.invoke - from) / slice_ns_);
      if (slice < read_ns_.size()) slot.slice = slice;
    }
    lsr::Encoder inner;
    if (slot.update) {
      lsr::rsm::ClientUpdate{slot.request, 0, increment_args_}.encode(inner);
    } else {
      lsr::rsm::ClientQuery{slot.request, 0, {}}.encode(inner);
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);  // one frame each
    ctx_.send(target, lsr::kv::make_envelope(keys_[slot.key], inner.bytes()));
    return true;
  }

  bool release(Slot& slot) {
    if (slot.busy) {
      slot.busy = false;
      in_flight_.fetch_sub(1);
    }
    return false;
  }

  void complete(const Slot& slot, lsr::TimeNs now, std::uint64_t value) {
    lsr::verify::History& history = histories_[slot.key];
    if (slot.update) {
      history.add_increment(slot.invoke, now, 1);
      ++acked_[slot.key];
      ++updates_acked_;
    } else {
      history.add_read(slot.invoke, now, value);
      ++reads_answered_;
      // Every update was acknowledged before the readback began, so the
      // conserved count is exact.
      if (slot.phase == Phase::kReadback && value != acked_[slot.key])
        mismatches_.push_back({slot.key, value, acked_[slot.key]});
    }
    if (slot.slice != kUnmeasured) {
      const auto latency = static_cast<std::uint32_t>(std::min<lsr::TimeNs>(
          now - slot.invoke, std::numeric_limits<std::uint32_t>::max()));
      (slot.update ? update_ns_ : read_ns_)[slot.slice].push_back(latency);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
  }

  void signal_if_idle() {
    if (in_flight_.load() != 0) return;
    {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      idle_ = true;
    }
    idle_cv_.notify_all();
  }

  lsr::net::Context& ctx_;
  const Workload& workload_;
  const std::vector<std::string>& keys_;
  const std::size_t depth_;
  lsr::Rng rng_;
  const lsr::bench::Zipfian zipf_;
  const lsr::TimeNs slice_ns_;
  lsr::Bytes increment_args_;

  // Executor-owned state.
  std::array<Slot, kMaxDepth> slots_{};
  Phase phase_ = Phase::kIdle;
  std::uint64_t cursor_ = 0;
  std::uint64_t request_counter_ = 0;
  std::vector<lsr::verify::History> histories_;
  std::vector<std::uint64_t> acked_;
  std::uint64_t updates_acked_ = 0;
  std::uint64_t reads_answered_ = 0;
  std::vector<Mismatch> mismatches_;
  std::vector<std::vector<std::uint32_t>> read_ns_;
  std::vector<std::vector<std::uint32_t>> update_ns_;
  std::vector<std::uint32_t> load_keys_;

  // Shared with the control thread.
  std::atomic<bool> issuing_{false};
  std::atomic<lsr::TimeNs> measure_from_{
      std::numeric_limits<lsr::TimeNs>::max()};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  bool idle_ = false;
  mutable std::mutex threads_mutex_;
  mutable std::vector<pthread_t> threads_;
};

}  // namespace e2e
