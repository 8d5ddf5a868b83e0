// Flag parsing and deployment setup shared by ppsm_cli and ppsm_server.
//
// Both binaries take the same deployment flags (--k --theta --method
// --cloud-threads --setup-threads --deadline-ms --shards --go-hops) and
// build a deployment from --in or --load-snapshot the same way; this header
// is the one copy of that surface.

#ifndef PPSM_TOOLS_TOOL_FLAGS_H_
#define PPSM_TOOLS_TOOL_FLAGS_H_

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "core/ppsm_system.h"
#include "graph/text_io.h"

namespace ppsm::tools {

/// Minimal flag parser; flags may appear in any order, as either
/// `--flag value` pairs or single `--flag=value` tokens.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        error_ = "expected a --flag, got '" + std::string(arg) + "'";
        return;
      }
      const char* eq = std::strchr(arg + 2, '=');
      if (eq != nullptr) {
        values_[std::string(arg + 2, eq)] = eq + 1;
      } else if (i + 1 < argc) {
        values_[arg + 2] = argv[++i];
      } else {
        error_ = "flag '" + std::string(arg) + "' is missing a value";
        return;
      }
    }
  }

  const std::string& error() const { return error_; }
  bool Has(const std::string& key) const { return values_.contains(key); }
  std::string Get(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    return Has(key) ? std::atof(Get(key).c_str()) : def;
  }
  long GetInt(const std::string& key, long def) const {
    return Has(key) ? std::atol(Get(key).c_str()) : def;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

inline int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

inline Result<Method> ParseMethod(const std::string& name) {
  if (name == "eff") return Method::kEff;
  if (name == "ran") return Method::kRan;
  if (name == "fsim") return Method::kFsim;
  if (name == "bas") return Method::kBas;
  return Status::InvalidArgument("unknown method '" + name +
                                 "' (want eff|ran|fsim|bas)");
}

/// The deployment flags: --k --theta --method --cloud-threads
/// --setup-threads --deadline-ms --shards --go-hops. `default_cloud_threads`
/// applies when --cloud-threads is absent.
inline Result<SystemConfig> ParseDeploymentFlags(const Args& args,
                                                 long default_cloud_threads) {
  SystemConfig config;
  config.k = static_cast<uint32_t>(args.GetInt("k", 2));
  config.theta = static_cast<size_t>(args.GetInt("theta", 2));
  PPSM_ASSIGN_OR_RETURN(config.method,
                        ParseMethod(args.Get("method", "eff")));
  config.cloud.num_threads = static_cast<size_t>(std::max(
      1L, args.GetInt("cloud-threads", default_cloud_threads)));
  config.setup_threads =
      static_cast<size_t>(std::max(1L, args.GetInt("setup-threads", 1)));
  config.cloud.query_deadline_ms =
      static_cast<uint64_t>(std::max(0L, args.GetInt("deadline-ms", 0)));
  // --shards=S hosts a CloudCluster of S slice servers instead of one
  // CloudServer; results are byte-identical at any value (DESIGN.md §13).
  config.num_shards =
      static_cast<uint32_t>(std::max(1L, args.GetInt("shards", 1)));
  // --go-hops=H uploads the radius-H Go so the planner may pick path/tree
  // units of depth up to H.
  config.go_hops =
      static_cast<uint32_t>(std::max(1L, args.GetInt("go-hops", 1)));
  return config;
}

/// Builds a deployment from a snapshot directory when `snapshot_in` is set
/// (the snapshot already carries the offline pipeline's output: its k and
/// baseline flag win over `config`), else by running the offline pipeline
/// over the text graph at `in`. Re-reads its input on every call.
inline Result<PpsmSystem> BuildSystem(const std::string& in,
                                      const std::string& snapshot_in,
                                      const SystemConfig& config) {
  if (!snapshot_in.empty()) {
    return PpsmSystem::LoadSnapshot(snapshot_in, config);
  }
  PPSM_ASSIGN_OR_RETURN(AttributedGraph graph, ReadGraphTextFile(in));
  auto schema = graph.schema();
  return PpsmSystem::Setup(std::move(graph), std::move(schema), config);
}

}  // namespace ppsm::tools

#endif  // PPSM_TOOLS_TOOL_FLAGS_H_
