// Workload definitions of the end-to-end benchmark. A workload fixes the
// keyspace, the key popularity, the read share, where requests go and
// whether the replicas run read leases; the seed (--seed) drives only the
// generator's operation sequence, so one seed always produces the same
// inputs. Key names are fixed ("k<index>"): the Zipfian hot ranks land on
// the same keys — and so the same shards — whatever the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// Where the generator sends a request.
enum class Targeting {
  kSpread,  // round-robin over the replicas
  kPinned,  // every request to replica 0
};

struct Workload {
  std::string name;
  std::uint64_t keys = 1024;
  double zipf_theta = 0.99;  // 0 = uniform
  double read_ratio = 0.9;
  Targeting targeting = Targeting::kSpread;
  bool read_leases = false;
  // Requests the generator keeps outstanding (see README.md, "Load shape").
  std::size_t depth = 16;
  // Replica-set size and replicated system; the three workloads use the
  // defaults, the README's reference figures override them.
  std::size_t replicas = 3;
  std::string system = "crdt";
};

inline bool find_workload(const std::string& name, Workload& out) {
  if (name == "hot_reads") {
    out = Workload{name, 1024, 0.99, 0.9, Targeting::kSpread, false, 4};
  } else if (name == "cold_writes") {
    out = Workload{name, 100000, 0.0, 0.1, Targeting::kSpread, false, 16};
  } else if (name == "leased_reads") {
    out = Workload{name, 1024, 0.99, 0.9, Targeting::kPinned, true, 16};
  } else {
    return false;
  }
  return true;
}

inline std::vector<std::string> make_keyspace(std::uint64_t keys) {
  std::vector<std::string> out;
  out.reserve(keys);
  for (std::uint64_t k = 0; k < keys; ++k) {
    std::string key = "k";
    key += std::to_string(k);
    out.push_back(std::move(key));
  }
  return out;
}

}  // namespace e2e
