// Tracing for the benchmark's traced run. The three replicas run in the
// benchmark's own net::TcpCluster; each kv::ShardedStore<GCounter> receives
// a CountingContext (counts and timestamps every frame it sends) and is
// wrapped in a TimingEndpoint (counts every frame it receives, times every
// handler by message tag, and samples frames for the offline replays at the
// bottom of this file). Nothing here changes the program: the decorators
// sit on the public net::Context / net::Endpoint interfaces.
//
// Wire time pairs a send with its receive by frame content: the sender and
// the receiver hash the same bytes, and frames of one connection arrive in
// order, so the oldest pending send with the same (source, destination,
// hash) is the one received. Only frames whose hash falls in a fixed 1/8
// slice are paired, to bound the tracing cost.
#pragma once

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/ops.h"
#include "kv/shard.h"
#include "kv/sharded_store.h"
#include "lattice/gcounter.h"
#include "net/context.h"

namespace e2e {

using Store = lsr::kv::ShardedStore<lsr::lattice::GCounter>;

constexpr std::size_t kTagSlots = 32;  // message tags are < 32

// CPU time of a live thread, in ns (0 when it cannot be read).
inline std::int64_t thread_cpu_ns(pthread_t thread) {
  clockid_t clock;
  timespec ts{};
  if (::pthread_getcpuclockid(thread, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0)
    return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::uint64_t frame_hash(lsr::ByteSpan data) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline bool wire_sampled(std::uint64_t hash) { return (hash >> 61) == 0; }

// Plain copy of the trace counters, for window deltas.
struct TraceCounts {
  std::uint64_t frames_sent = 0;       // by the replicas, to anyone
  std::uint64_t frames_to_client = 0;  // subset of frames_sent
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;  // by the replicas, from anyone
  std::uint64_t handler_ns = 0;
  std::uint64_t inline_handler_ns = 0;
  std::array<std::uint64_t, kTagSlots> tag_count{};
  std::array<std::uint64_t, kTagSlots> tag_ns{};
};

// State shared by every traced replica of one run.
class TraceState {
 public:
  static constexpr std::size_t kCaptureEvery = 8;
  static constexpr std::size_t kMaxCaptured = 1u << 15;
  static constexpr std::size_t kMaxWireSamples = 1u << 20;

  explicit TraceState(lsr::NodeId client) : client_(client) {}

  TraceCounts counts() const {
    TraceCounts out;
    out.frames_sent = frames_sent_.load();
    out.frames_to_client = frames_to_client_.load();
    out.bytes_sent = bytes_sent_.load();
    out.frames_received = frames_received_.load();
    out.handler_ns = handler_ns_.load();
    out.inline_handler_ns = inline_handler_ns_.load();
    for (std::size_t t = 0; t < kTagSlots; ++t) {
      out.tag_count[t] = tag_count_[t].load();
      out.tag_ns[t] = tag_ns_[t].load();
    }
    return out;
  }

  std::vector<pthread_t> reactor_threads() const {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    return reactor_threads_;
  }

  // Sorted wire-time samples, ns. Call after the clusters stopped.
  std::vector<std::int64_t> wire_samples() const {
    std::lock_guard<std::mutex> lock(wire_mutex_);
    std::vector<std::int64_t> out = wire_ns_;
    std::sort(out.begin(), out.end());
    return out;
  }

  const std::vector<lsr::Bytes>& captured() const { return captured_; }

  // Query round trips per completed read (ProposerHooks).
  void count_round_trips(int round_trips) {
    const auto slot = static_cast<std::size_t>(
        std::clamp(round_trips, 0, static_cast<int>(kTagSlots) - 1));
    round_trips_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  std::array<std::uint64_t, kTagSlots> round_trips() const {
    std::array<std::uint64_t, kTagSlots> out{};
    for (std::size_t i = 0; i < kTagSlots; ++i) out[i] = round_trips_[i].load();
    return out;
  }

  // ---- decorator side ----

  void on_send(lsr::NodeId self, lsr::NodeId dst, const lsr::Bytes& data,
               lsr::TimeNs now) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(data.size(), std::memory_order_relaxed);
    if (dst == client_) {
      frames_to_client_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t hash = frame_hash(data);
    if (!wire_sampled(hash)) return;
    std::lock_guard<std::mutex> lock(wire_mutex_);
    pending_.emplace(WireKey{self, dst, hash}, now);
  }

  void on_receive(lsr::NodeId self, lsr::NodeId from, lsr::ByteSpan data,
                  lsr::TimeNs now) {
    const std::uint64_t n = frames_received_.fetch_add(1);
    if (n % kCaptureEvery == 0) {
      std::lock_guard<std::mutex> lock(capture_mutex_);
      if (captured_.size() < kMaxCaptured)
        captured_.emplace_back(data.begin(), data.end());
    }
    if (from == client_) return;
    const std::uint64_t hash = frame_hash(data);
    if (!wire_sampled(hash)) return;
    std::lock_guard<std::mutex> lock(wire_mutex_);
    auto [first, last] = pending_.equal_range(WireKey{from, self, hash});
    if (first == last) return;
    auto oldest = first;
    for (auto it = first; it != last; ++it)
      if (it->second < oldest->second) oldest = it;
    if (wire_ns_.size() < kMaxWireSamples)
      wire_ns_.push_back(now - oldest->second);
    pending_.erase(oldest);
  }

  void on_handled(std::uint8_t tag, std::uint64_t ns, bool inline_run) {
    handler_ns_.fetch_add(ns, std::memory_order_relaxed);
    if (inline_run) inline_handler_ns_.fetch_add(ns, std::memory_order_relaxed);
    const std::size_t slot = tag < kTagSlots ? tag : 0;
    tag_count_[slot].fetch_add(1, std::memory_order_relaxed);
    tag_ns_[slot].fetch_add(ns, std::memory_order_relaxed);
  }

  // Called from Endpoint::lane_of, which only the reactor (io) threads run:
  // marks the calling thread as a reactor.
  void note_reactor_thread() {
    if (t_reactor_of == this) return;
    t_reactor_of = this;
    std::lock_guard<std::mutex> lock(threads_mutex_);
    reactor_threads_.push_back(::pthread_self());
  }
  bool on_reactor_thread() const { return t_reactor_of == this; }

 private:
  struct WireKey {
    lsr::NodeId from;
    lsr::NodeId to;
    std::uint64_t hash;
    bool operator==(const WireKey&) const = default;
  };
  struct WireKeyHash {
    std::size_t operator()(const WireKey& key) const {
      return static_cast<std::size_t>(key.hash ^ (std::uint64_t{key.from} << 48) ^
                                      (std::uint64_t{key.to} << 56));
    }
  };

  static inline thread_local const TraceState* t_reactor_of = nullptr;

  const lsr::NodeId client_;
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_to_client_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> handler_ns_{0};
  std::atomic<std::uint64_t> inline_handler_ns_{0};
  std::array<std::atomic<std::uint64_t>, kTagSlots> tag_count_{};
  std::array<std::atomic<std::uint64_t>, kTagSlots> tag_ns_{};
  std::array<std::atomic<std::uint64_t>, kTagSlots> round_trips_{};

  mutable std::mutex wire_mutex_;
  std::unordered_multimap<WireKey, lsr::TimeNs, WireKeyHash> pending_;
  std::vector<std::int64_t> wire_ns_;

  std::mutex capture_mutex_;
  std::vector<lsr::Bytes> captured_;

  mutable std::mutex threads_mutex_;
  std::vector<pthread_t> reactor_threads_;
};

// Context decorator: every frame the store sends is counted (and, for the
// sampled slice, timestamped) before it reaches the transport.
class CountingContext final : public lsr::net::Context {
 public:
  CountingContext(lsr::net::Context& inner, TraceState& trace)
      : inner_(inner), trace_(trace) {}

  lsr::NodeId self() const override { return inner_.self(); }
  lsr::TimeNs now() const override { return inner_.now(); }
  void send(lsr::NodeId dst, lsr::Bytes data) override {
    trace_.on_send(inner_.self(), dst, data, inner_.now());
    inner_.send(dst, std::move(data));
  }
  lsr::net::TimerId set_timer(lsr::TimeNs delay, int lane,
                              std::function<void()> fn) override {
    return inner_.set_timer(delay, lane, std::move(fn));
  }
  void cancel_timer(lsr::net::TimerId id) override { inner_.cancel_timer(id); }
  void consume(lsr::TimeNs cost) override { inner_.consume(cost); }

 private:
  lsr::net::Context& inner_;
  TraceState& trace_;
};

// Endpoint decorator owning one traced store.
class TimingEndpoint final : public lsr::net::Endpoint {
 public:
  TimingEndpoint(lsr::net::Context& ctx, TraceState& trace,
                 std::vector<lsr::NodeId> replicas,
                 lsr::core::ProtocolConfig protocol,
                 lsr::kv::ShardOptions shards)
      : trace_(trace),
        context_(ctx, trace),
        store_(context_, std::move(replicas), protocol,
               lsr::core::gcounter_ops(), lsr::lattice::GCounter{}, shards) {}

  Store& store() { return store_; }
  lsr::net::Context& context() { return context_; }

  void on_start() override { store_.on_start(); }
  void on_recover() override { store_.on_recover(); }
  int lane_count() const override { return store_.lane_count(); }
  int executor_count() const override { return store_.executor_count(); }
  int executor_of(int lane) const override { return store_.executor_of(lane); }

  int lane_of(lsr::ByteSpan data) const override {
    trace_.note_reactor_thread();
    return store_.lane_of(data);
  }

  void on_message(lsr::NodeId from, lsr::ByteSpan data) override {
    trace_.on_receive(context_.self(), from, data, context_.now());
    lsr::kv::EnvelopeView env;
    const std::uint8_t tag =
        lsr::kv::peek_envelope(data, env) ? env.inner_tag() : 0;
    const auto start = std::chrono::steady_clock::now();
    store_.on_message(from, data);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    trace_.on_handled(tag, static_cast<std::uint64_t>(ns),
                      trace_.on_reactor_thread());
  }

 private:
  TraceState& trace_;
  CountingContext context_;  // before store_: the store keeps a reference
  Store store_;
};

// ---- offline replays over the frames captured in the traced run ----

// Runs `pass` (which processes `items` items) until at least 50 ms have
// been timed; returns ns per item.
template <typename Pass>
double ns_per_item(std::size_t items, Pass&& pass) {
  if (items == 0) return 0.0;
  using Clock = std::chrono::steady_clock;
  std::size_t passes = 0;
  const auto start = Clock::now();
  auto elapsed = Clock::duration::zero();
  do {
    pass();
    ++passes;
    elapsed = Clock::now() - start;
  } while (elapsed < std::chrono::milliseconds(50));
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(passes * items);
}

// Keeps replay results observable so the timed loops are not elided.
inline void keep(std::uint64_t value) {
  static volatile std::uint64_t sink = 0;
  sink = sink + value;
}

struct ReplayResults {
  double envelope_peek_ns = 0;
  double decode_ns_per_msg = 0;
  double encode_ns_per_msg = 0;
  double join_ns = 0;
  double state_bytes = 0;
};

inline ReplayResults replay_frames(const std::vector<lsr::Bytes>& frames) {
  using lsr::lattice::GCounter;
  ReplayResults out;
  out.envelope_peek_ns = ns_per_item(frames.size(), [&] {
    lsr::kv::EnvelopeView env;
    for (const auto& frame : frames)
      if (lsr::kv::peek_envelope(frame.data(), frame.size(), env))
        keep(env.key_hash);
  });

  // Protocol messages (tags >= 16) inside the envelopes.
  std::vector<lsr::ByteSpan> inner;
  for (const auto& frame : frames) {
    lsr::kv::EnvelopeView env;
    if (lsr::kv::peek_envelope(frame.data(), frame.size(), env) &&
        env.inner_tag() >= static_cast<std::uint8_t>(lsr::core::MsgTag::kMerge))
      inner.emplace_back(env.inner, env.inner_size);
  }
  std::vector<lsr::core::Message<GCounter>> messages;
  for (const auto span : inner) {
    try {
      lsr::Decoder dec(span);
      messages.push_back(lsr::core::decode_message<GCounter>(dec));
    } catch (const lsr::WireError&) {
    }
  }
  out.decode_ns_per_msg = ns_per_item(inner.size(), [&] {
    for (const auto span : inner) {
      try {
        lsr::Decoder dec(span);
        keep(lsr::core::decode_message<GCounter>(dec).index());
      } catch (const lsr::WireError&) {
      }
    }
  });
  out.encode_ns_per_msg = ns_per_item(messages.size(), [&] {
    for (const auto& message : messages)
      keep(lsr::core::encode_message<GCounter>(message).size());
  });

  // Lattice states carried by MERGE, ACK and VOTE.
  std::vector<GCounter> states;
  for (const auto& message : messages) {
    if (const auto* merge = std::get_if<lsr::core::Merge<GCounter>>(&message))
      states.push_back(merge->state);
    else if (const auto* ack = std::get_if<lsr::core::Ack<GCounter>>(&message))
      states.push_back(ack->state);
    else if (const auto* vote = std::get_if<lsr::core::Vote<GCounter>>(&message))
      states.push_back(vote->state);
  }
  double bytes = 0;
  for (const auto& state : states) {
    lsr::Encoder enc;
    state.encode(enc);
    bytes += static_cast<double>(enc.bytes().size());
  }
  out.state_bytes = states.empty() ? 0.0 : bytes / static_cast<double>(states.size());
  out.join_ns = ns_per_item(states.size(), [&] {
    GCounter acc;
    for (const auto& state : states) acc.join(state);
    keep(acc.value());
  });
  return out;
}

// ShardedStore::has_key over the run's load-phase key sequence.
inline double replay_key_lookups(const Store& store,
                                 const std::vector<std::string>& keys,
                                 const std::vector<std::uint32_t>& sequence) {
  return ns_per_item(sequence.size(), [&] {
    std::uint64_t hits = 0;
    for (const std::uint32_t key : sequence)
      hits += store.has_key(keys[key]) ? 1 : 0;
    keep(hits);
  });
}

}  // namespace e2e
