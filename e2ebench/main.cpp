// End-to-end benchmark (see README.md). One invocation runs one
// workload and prints, as its last stdout line, a JSON object with the
// operations attempted and failed and the metrics of its mode:
//
//   --trace 0  three lsr_node processes on loopback, driven by one closed
//              loop generator; end-to-end metrics.
//   --trace 1  the same run, then the same workload against three stores
//              hosted in this process behind tracing decorators; per-layer
//              metrics and the tracing overhead between the two runs.
//
// Every run checks its outputs: a final read of each key must equal the
// increments the generator saw acknowledged, every key's history must be
// counter-linearizable, and in the traced run frame and command totals
// counted on independent paths must agree. A failed check prints the
// result with `failed` > 0 or `correct` false and exits 1.
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/config.h"
#include "generator.h"
#include "kv/shard.h"
#include "net/membership.h"
#include "net/tcp.h"
#include "replicas.h"
#include "tracing.h"
#include "verify/linearizability.h"
#include "workload.h"

using namespace lsr;

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
constexpr std::chrono::nanoseconds kSlice = std::chrono::seconds(1);
// Load before the window opens, so caches and connections are warm.
constexpr std::chrono::milliseconds kWarmup{1000};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string node_binary;
  std::string log_dir = ".";
  // Reference-figure overrides (README); unset = the workload's own.
  std::string system;
  long replicas = 0;
  std::string target;  // spread | pinned
  std::string leases;  // on | off
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  double ops_per_s = 0;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void fail(std::string problem) { problems.push_back(std::move(problem)); }
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile of ns samples, in us (0 when empty).
double percentile_us(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]) / 1000.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

// Median over the window's slices of each slice's percentile.
double median_percentile_us(std::vector<std::vector<std::uint32_t>>& slices,
                            double q) {
  std::vector<double> values;
  for (auto& slice : slices)
    if (!slice.empty()) values.push_back(percentile_us(slice, q));
  return median(std::move(values));
}

// CPU of a set of threads, ns; the threads must be alive.
std::int64_t threads_cpu_ns(const std::vector<pthread_t>& threads) {
  std::int64_t total = 0;
  for (const pthread_t thread : threads) total += thread_cpu_ns(thread);
  return total;
}

// Per-thread CPU snapshot of the generator (its executor and reactor).
struct GenSnapshot {
  std::vector<pthread_t> threads;
  std::vector<std::int64_t> cpu_ns;
};

GenSnapshot gen_snapshot(const ClosedLoopClient& client) {
  GenSnapshot out;
  out.threads = client.threads();
  for (const pthread_t thread : out.threads)
    out.cpu_ns.push_back(thread_cpu_ns(thread));
  return out;
}

// Busiest generator thread's share of the window, and total CPU in ns.
std::pair<double, double> gen_usage(const GenSnapshot& before,
                                    const GenSnapshot& after, double wall_s) {
  double busiest = 0, total_ns = 0;
  for (std::size_t i = 0; i < after.threads.size(); ++i) {
    std::int64_t start = 0;
    for (std::size_t j = 0; j < before.threads.size(); ++j)
      if (::pthread_equal(before.threads[j], after.threads[i]))
        start = before.cpu_ns[j];
    const double used = static_cast<double>(after.cpu_ns[i] - start);
    total_ns += used;
    busiest = std::max(busiest, used / (wall_s * 1e9));
  }
  return {busiest, total_ns};
}

std::string peers_spec(const std::vector<std::uint16_t>& ports) {
  std::string spec;
  for (std::size_t id = 0; id < ports.size(); ++id) {
    if (!spec.empty()) spec += ",";
    spec += std::to_string(id) + "=127.0.0.1:" + std::to_string(ports[id]);
  }
  return spec;
}

// Checks run on every run: conservation and per-key linearizability.
void check_outputs(const ClosedLoopClient& client,
                   const std::vector<std::string>& keys, RunResult& result) {
  for (const Mismatch& mismatch : client.mismatches()) {
    ++result.failed;
    if (result.problems.size() < 8)
      result.fail("key " + keys[mismatch.key] + " read " +
                  std::to_string(mismatch.read) + " after " +
                  std::to_string(mismatch.expected) +
                  " acknowledged increments");
  }
  std::size_t violations = 0;
  const auto& histories = client.histories();
  for (std::size_t k = 0; k < histories.size(); ++k) {
    if (histories[k].empty()) continue;
    const auto check = verify::check_counter_linearizable(histories[k]);
    if (check.linearizable) continue;
    result.correct = false;
    if (++violations <= 4)
      result.fail("key " + keys[k] + " not linearizable: " + check.explanation);
  }
}

// Installs the round-trip hook on every key's proposer of one traced
// replica, on each shard's own executor; returns once all have run.
void install_round_trip_hooks(TimingEndpoint& endpoint,
                              const std::vector<std::string>& keys,
                              TraceState& trace) {
  Store& store = endpoint.store();
  std::mutex mutex;
  std::condition_variable cv;
  std::uint32_t pending = store.shard_count();
  for (std::uint32_t shard = 0; shard < store.shard_count(); ++shard) {
    endpoint.context().set_timer(
        0, 2 * static_cast<int>(shard) + core::kProposerLane, [&, shard] {
          for (const auto& key : keys) {
            if (store.shard_of(key) != shard) continue;
            store.replica_for(key).proposer().hooks.on_query_round_trips =
                [&trace](int round_trips) {
                  trace.count_round_trips(round_trips);
                };
          }
          std::lock_guard<std::mutex> lock(mutex);
          if (--pending == 0) cv.notify_all();
        });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return pending == 0; });
}

// One run of `workload`: set-up, warm-up, measured window, drain, readback
// and checks. `traced` hosts the replicas in this process behind the
// tracing decorators instead of spawning lsr_node processes.
RunResult run_once(const Options& options, const Workload& workload,
                   const std::vector<std::string>& keys, bool traced,
                   Clock::time_point setup_start) {
  RunResult result;
  const std::size_t replicas = workload.replicas;
  const auto client_id = static_cast<NodeId>(replicas);
  const std::vector<std::uint16_t> ports = free_ports(replicas + 1);
  if (ports.empty()) {
    result.fail("could not reserve loopback ports");
    return result;
  }
  const std::string peers = peers_spec(ports);
  net::Membership membership;
  std::string error;
  if (!net::Membership::parse_peers(peers, membership, &error)) {
    result.fail("membership: " + error);
    return result;
  }
  std::vector<NodeId> replica_ids;
  for (std::size_t r = 0; r < replicas; ++r)
    replica_ids.push_back(static_cast<NodeId>(r));

  net::TcpCluster client_cluster(membership);
  client_cluster.add_node(client_id, [&](net::Context& ctx) {
    return std::make_unique<ClosedLoopClient>(
        ctx, workload, keys, options.seed, workload.depth,
        static_cast<std::size_t>(options.seconds), kSlice.count());
  });
  auto& client = client_cluster.endpoint_as<ClosedLoopClient>(client_id);

  // Declared before the replica cluster: the traced stores and their hooks
  // refer to it until they are destroyed.
  TraceState trace(client_id);
  ReplicaProcesses processes;
  std::unique_ptr<net::TcpCluster> replica_cluster;
  core::ProtocolConfig protocol;
  protocol.read_leases = workload.read_leases;
  // lsr_node's defaults: 4 shards, one executor group per core.
  const kv::ShardOptions shard_options{
      4, std::max(1u, std::thread::hardware_concurrency())};
  if (!traced) {
    std::vector<std::string> extra = {"--system", workload.system, "--shards",
                                      "4"};
    if (workload.read_leases) extra.push_back("--read-leases");
    if (!processes.start(options.node_binary, peers, replicas, extra,
                         options.log_dir, std::chrono::seconds(30), error)) {
      result.fail(error);
      return result;
    }
  } else {
    replica_cluster = std::make_unique<net::TcpCluster>(membership);
    for (const NodeId id : replica_ids)
      replica_cluster->add_node(id, [&](net::Context& ctx) {
        return std::make_unique<TimingEndpoint>(ctx, trace, replica_ids,
                                                protocol, shard_options);
      });
    replica_cluster->start();
  }
  client_cluster.start();

  const auto stop_all = [&] {
    client_cluster.stop();
    if (replica_cluster) replica_cluster->stop();
    processes.stop();
  };

  client.begin(ClosedLoopClient::Phase::kPreload);
  if (!client.wait_idle(std::chrono::seconds(120))) {
    result.failed += client.in_flight();
    result.attempted = client.submitted();
    result.fail("preload did not complete: " +
                std::to_string(client.completed()) + " of " +
                std::to_string(2 * keys.size()) + " requests answered in 120 s");
    stop_all();
    return result;
  }
  const double setup_s = seconds_between(setup_start, Clock::now());

  if (traced)
    for (const NodeId id : replica_ids)
      install_round_trip_hooks(
          replica_cluster->endpoint_as<TimingEndpoint>(id), keys, trace);

  client.begin(ClosedLoopClient::Phase::kLoad);
  std::this_thread::sleep_for(kWarmup);

  // Window start.
  const auto hot_path_start = traced ? replica_cluster->hot_path_stats()
                                     : core::ReactorHotPathStats{};
  const TraceCounts trace_start = trace.counts();
  const std::vector<pthread_t> reactors = trace.reactor_threads();
  const std::int64_t reactor_cpu_start = threads_cpu_ns(reactors);
  const GenSnapshot gen_start = gen_snapshot(client);
  const auto window_start = Clock::now();
  client.measure_from(client.now());
  // One-second slices: throughput, latency percentiles and replica CPU per
  // op are taken per slice and reported as their medians over the window,
  // so a transient stall of the shared machine moves one slice, not the run.
  std::vector<std::uint64_t> slice_ops;
  std::vector<double> slice_seconds, slice_cpu;
  std::uint64_t ops_mark = client.completed();
  double cpu_mark = processes.cpu_seconds();
  auto time_mark = window_start;
  for (int slice = 1; slice <= options.seconds; ++slice) {
    std::this_thread::sleep_until(window_start + slice * kSlice);
    const auto now = Clock::now();
    const std::uint64_t ops = client.completed();
    const double cpu = processes.cpu_seconds();
    slice_ops.push_back(ops - ops_mark);
    slice_seconds.push_back(seconds_between(time_mark, now));
    slice_cpu.push_back(cpu - cpu_mark);
    ops_mark = ops;
    cpu_mark = cpu;
    time_mark = now;
  }

  // Window end.
  const auto window_end = time_mark;
  const GenSnapshot gen_end = gen_snapshot(client);
  const std::int64_t reactor_cpu_end = threads_cpu_ns(reactors);
  const TraceCounts trace_end = trace.counts();
  const auto hot_path_end = traced ? replica_cluster->hot_path_stats()
                                   : core::ReactorHotPathStats{};

  client.stop_issuing();
  bool drained = client.wait_idle(std::chrono::seconds(20));
  if (drained) {
    client.begin(ClosedLoopClient::Phase::kReadback);
    drained = client.wait_idle(std::chrono::seconds(120));
  }
  if (!drained) {
    result.failed += client.in_flight();
    result.fail(std::to_string(client.in_flight()) +
                " requests never answered");
  }
  const double rss_mb = processes.mean_peak_rss_mb();

  // Traced run: frame totals from three independent paths must agree once
  // the replicas are quiet (sending decorators + the generator, receiving
  // decorators, and the transport's own parse counters).
  std::string totals;
  if (traced && drained) {
    bool agree = false;
    for (int attempt = 0; attempt < 250 && !agree; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const TraceCounts now = trace.counts();
      const std::uint64_t to_replicas =
          now.frames_sent - now.frames_to_client + client.submitted();
      const std::uint64_t replica_rx =
          replica_cluster->hot_path_stats().frames_received;
      const std::uint64_t client_rx =
          client_cluster.hot_path_stats().frames_received;
      agree = to_replicas == now.frames_received &&
              now.frames_received == replica_rx &&
              now.frames_to_client == client.frames_received() &&
              client.frames_received() == client_rx;
      totals = "frames to replicas: sent " + std::to_string(to_replicas) +
               ", decorated " + std::to_string(now.frames_received) +
               ", transport " + std::to_string(replica_rx) +
               "; to the generator: sent " +
               std::to_string(now.frames_to_client) + ", handled " +
               std::to_string(client.frames_received()) + ", transport " +
               std::to_string(client_rx);
    }
    if (!agree) {
      result.correct = false;
      result.fail("frame totals disagree: " + totals);
    }
  }
  stop_all();

  result.attempted = client.submitted();
  check_outputs(client, keys, result);

  const double wall_s = seconds_between(window_start, window_end);
  double window_ops = 0;
  std::vector<double> slice_rates, slice_cpu_per_op;
  for (std::size_t i = 0; i < slice_ops.size(); ++i) {
    const auto ops = static_cast<double>(slice_ops[i]);
    window_ops += ops;
    slice_rates.push_back(ops / slice_seconds[i]);
    slice_cpu_per_op.push_back(ops > 0 ? slice_cpu[i] * 1e6 / ops : 0.0);
  }
  result.ops_per_s = median(slice_rates);
  const auto [gen_busy, gen_cpu_ns] = gen_usage(gen_start, gen_end, wall_s);
  const double gen_cpu_us_per_op = gen_cpu_ns / 1000.0 / window_ops;
  auto& reads = client.read_latencies_ns();
  auto& updates = client.update_latencies_ns();
  std::size_t timed_reads = 0, timed_updates = 0;
  for (const auto& slice : reads) timed_reads += slice.size();
  for (const auto& slice : updates) timed_updates += slice.size();
  std::printf("%s %s: %.0f ops in %zu slices of %.3f s; %zu reads and %zu "
              "updates timed; gen.cpu_us_per_op %.4f, gen.busy_share %.4f\n",
              workload.name.c_str(), traced ? "traced" : "untraced",
              window_ops, slice_ops.size(), wall_s / slice_ops.size(),
              timed_reads, timed_updates, gen_cpu_us_per_op, gen_busy);

  if (!traced) {
    result.add("setup_s", "s", setup_s);
    result.add("ops_per_s", "1/s", result.ops_per_s);
    result.add("read_p50_us", "us", median_percentile_us(reads, 0.50));
    result.add("read_p99_us", "us", median_percentile_us(reads, 0.99));
    result.add("update_p50_us", "us", median_percentile_us(updates, 0.50));
    result.add("update_p99_us", "us", median_percentile_us(updates, 0.99));
    result.add("replica_cpu_us_per_op", "us", median(slice_cpu_per_op));
    result.add("replica_rss_mb", "MB", rss_mb);
    return result;
  }

  // ---- per-layer metrics of the traced run ----
  const auto delta = [](std::uint64_t end, std::uint64_t start) {
    return static_cast<double>(end - start);
  };
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  const double syscalls =
      delta(hot_path_end.waits + hot_path_end.recv_calls +
                hot_path_end.sendmsg_calls,
            hot_path_start.waits + hot_path_start.recv_calls +
                hot_path_start.sendmsg_calls);
  const double inline_runs =
      delta(hot_path_end.inline_handlers, hot_path_start.inline_handlers);
  const double posts =
      delta(hot_path_end.mailbox_posts, hot_path_start.mailbox_posts);
  const std::vector<std::int64_t> wire = trace.wire_samples();
  const double handler_ns =
      delta(trace_end.handler_ns, trace_start.handler_ns);
  const double inline_ns =
      delta(trace_end.inline_handler_ns, trace_start.inline_handler_ns);

  result.add("net.syscalls_per_op", "count", syscalls / window_ops);
  result.add("net.frames_per_writev", "ratio",
             ratio(delta(hot_path_end.frames_sent, hot_path_start.frames_sent),
                   delta(hot_path_end.sendmsg_calls,
                         hot_path_start.sendmsg_calls)));
  result.add("net.inline_ratio", "ratio",
             ratio(inline_runs, inline_runs + posts));
  result.add("net.wire_us_p50", "us",
             wire.empty() ? 0.0
                          : static_cast<double>(wire[(wire.size() - 1) / 2]) /
                                1000.0);
  result.add("net.reactor_cpu_us_per_op", "us",
             (static_cast<double>(reactor_cpu_end - reactor_cpu_start) -
              inline_ns) /
                 1000.0 / window_ops);

  // Store-side totals, read after the clusters stopped.
  core::ProposerStats sum;
  core::LeaseStats leases;
  double bytes_per_key = 0;
  for (const NodeId id : replica_ids) {
    Store& store = replica_cluster->endpoint_as<TimingEndpoint>(id).store();
    for (const auto& key : keys) {
      if (!store.has_key(key)) continue;
      const core::ProposerStats& stats =
          store.replica_for(key).proposer().stats();
      sum.updates_done += stats.updates_done;
      sum.queries_done += stats.queries_done;
      sum.update_rounds += stats.update_rounds;
      sum.query_rounds += stats.query_rounds;
      sum.vote_phases += stats.vote_phases;
      sum.learned_consistent_quorum += stats.learned_consistent_quorum;
      sum.nacks_received += stats.nacks_received;
    }
    leases.add(store.lease_stats());
    bytes_per_key += store.memory_stats().bytes_per_key();
  }
  bytes_per_key /= static_cast<double>(replica_ids.size());
  if (sum.updates_done != client.updates_acked() ||
      sum.queries_done != client.reads_answered()) {
    result.correct = false;
    result.fail("command totals disagree: replicas completed " +
                std::to_string(sum.updates_done) + " updates and " +
                std::to_string(sum.queries_done) +
                " queries, the generator saw " +
                std::to_string(client.updates_acked()) + " and " +
                std::to_string(client.reads_answered()));
  }

  const Store& store0 = replica_cluster->endpoint_as<TimingEndpoint>(0).store();
  const ReplayResults replay = replay_frames(trace.captured());
  result.add("kv.envelope_peek_ns", "ns", replay.envelope_peek_ns);
  result.add("kv.key_lookup_ns", "ns",
             replay_key_lookups(store0, keys, client.load_keys()));
  result.add("kv.store_bytes_per_key", "B", bytes_per_key);

  result.add("core.msgs_per_op", "count",
             delta(trace_end.frames_sent, trace_start.frames_sent) /
                 window_ops);
  result.add("core.bytes_per_op", "B",
             delta(trace_end.bytes_sent, trace_start.bytes_sent) / window_ops);
  result.add("core.handler_us_per_op", "us", handler_ns / 1000.0 / window_ops);
  const std::pair<const char*, std::uint8_t> tags[] = {
      {"client_query", static_cast<std::uint8_t>(rsm::ClientTag::kQuery)},
      {"client_update", static_cast<std::uint8_t>(rsm::ClientTag::kUpdate)},
      {"merge", static_cast<std::uint8_t>(core::MsgTag::kMerge)},
      {"merged", static_cast<std::uint8_t>(core::MsgTag::kMerged)},
      {"prepare", static_cast<std::uint8_t>(core::MsgTag::kPrepare)},
      {"ack", static_cast<std::uint8_t>(core::MsgTag::kAck)},
      {"vote", static_cast<std::uint8_t>(core::MsgTag::kVote)},
      {"voted", static_cast<std::uint8_t>(core::MsgTag::kVoted)},
      {"nack", static_cast<std::uint8_t>(core::MsgTag::kNack)},
      {"lease_recall", static_cast<std::uint8_t>(core::MsgTag::kLeaseRecall)},
  };
  for (const auto& [name, tag] : tags)
    result.add(std::string("core.handler_ns.") + name, "ns",
               ratio(delta(trace_end.tag_ns[tag], trace_start.tag_ns[tag]),
                     delta(trace_end.tag_count[tag],
                           trace_start.tag_count[tag])));

  const auto round_trips = trace.round_trips();
  std::uint64_t learned_reads = 0;
  for (const auto count : round_trips) learned_reads += count;
  double read_rt_p99 = 0;
  for (std::size_t rt = 0, seen = 0; rt < round_trips.size(); ++rt) {
    seen += round_trips[rt];
    if (learned_reads > 0 &&
        static_cast<double>(seen) >= 0.99 * static_cast<double>(learned_reads)) {
      read_rt_p99 = static_cast<double>(rt);
      break;
    }
  }
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  result.add("core.reads_one_rt_ratio", "ratio",
             ratio(count(sum.learned_consistent_quorum),
                   count(sum.query_rounds)));
  result.add("core.read_rt_p99", "count", read_rt_p99);
  result.add("core.votes_per_read", "ratio",
             ratio(count(sum.vote_phases), count(sum.queries_done)));
  result.add("core.nacks_per_op", "ratio",
             ratio(count(sum.nacks_received),
                   count(sum.updates_done + sum.queries_done)));
  result.add("core.commands_per_round", "ratio",
             ratio(count(sum.updates_done + sum.queries_done -
                         leases.lease_hits),
                   count(sum.update_rounds + sum.query_rounds)));
  result.add("core.lease_hit_ratio", "ratio",
             leases.hit_ratio(sum.queries_done));
  result.add("core.recalls_per_update", "ratio",
             ratio(count(leases.recalls_sent), count(sum.updates_done)));
  result.add("core.merges_deferred_per_update", "ratio",
             ratio(count(leases.merges_deferred), count(sum.updates_done)));
  result.add("lattice.join_ns", "ns", replay.join_ns);
  result.add("lattice.state_bytes", "B", replay.state_bytes);
  result.add("codec.decode_ns_per_msg", "ns", replay.decode_ns_per_msg);
  result.add("codec.encode_ns_per_msg", "ns", replay.encode_ns_per_msg);
  result.add("gen.cpu_us_per_op", "us", gen_cpu_us_per_op);
  result.add("gen.busy_share", "ratio", gen_busy);
  std::printf("%s traced: %s\n", workload.name.c_str(), totals.c_str());
  return result;
}

void print_json(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload hot_reads|cold_writes|"
               "leased_reads --seed N --seconds S --trace 0|1\n"
               "                  --node-binary PATH [--log-dir DIR]\n"
               "                  [--system crdt|paxos|raft] [--replicas R]\n"
               "                  [--target spread|pinned] [--leases on|off]\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const auto process_start = Clock::now();
  Options options;
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (flag("--workload")) options.workload = argv[++i];
    else if (flag("--seed")) options.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (flag("--seconds")) options.seconds = std::atoi(argv[++i]);
    else if (flag("--trace")) options.trace = std::atoi(argv[++i]) != 0;
    else if (flag("--node-binary")) options.node_binary = argv[++i];
    else if (flag("--log-dir")) options.log_dir = argv[++i];
    else if (flag("--system")) options.system = argv[++i];
    else if (flag("--replicas")) options.replicas = std::atol(argv[++i]);
    else if (flag("--target")) options.target = argv[++i];
    else if (flag("--leases")) options.leases = argv[++i];

    else return usage();
  }
  Workload workload;
  if (!find_workload(options.workload, workload) || options.seconds < 1 ||
      options.node_binary.empty())
    return usage();
  if (!options.system.empty()) workload.system = options.system;
  if (options.replicas > 0)
    workload.replicas = static_cast<std::size_t>(options.replicas);
  if (!options.target.empty())
    workload.targeting =
        options.target == "pinned" ? Targeting::kPinned : Targeting::kSpread;
  if (!options.leases.empty()) workload.read_leases = options.leases == "on";
  if (options.trace && workload.system != "crdt") {
    std::fprintf(stderr, "e2e_bench: the traced run hosts crdt stores only\n");
    return 2;
  }

  set_log_level(LogLevel::kError);
  ::signal(SIGPIPE, SIG_IGN);
  const std::vector<std::string> keys = make_keyspace(workload.keys);

  RunResult result =
      run_once(options, workload, keys, /*traced=*/false, process_start);
  if (options.trace) {
    // The per-layer figures come from a second, traced run of the same
    // workload; the first run supplies the untraced throughput.
    const double untraced_ops = result.ops_per_s;
    RunResult traced =
        run_once(options, workload, keys, /*traced=*/true, Clock::now());
    traced.attempted += result.attempted;
    traced.failed += result.failed;
    traced.correct = traced.correct && result.correct;
    traced.problems.insert(traced.problems.begin(), result.problems.begin(),
                           result.problems.end());
    traced.add("trace.ops_per_s", "1/s", traced.ops_per_s);
    traced.add("trace.overhead_ratio", "ratio",
               untraced_ops > 0 ? traced.ops_per_s / untraced_ops : 0.0);
    result = std::move(traced);
  }

  for (const auto& problem : result.problems)
    std::fprintf(stderr, "e2e_bench: %s\n", problem.c_str());
  for (const auto& metric : result.metrics)
    std::printf("  %-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  print_json(result);
  const bool ok = result.correct && result.failed == 0 &&
                  result.problems.empty() && result.attempted > 0;
  return ok ? 0 : 1;
}
