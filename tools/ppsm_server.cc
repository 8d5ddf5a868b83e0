// ppsm_server — hosts a deployment behind the PPSM wire protocol.
//
//   ppsm_server --in g.graph --k 4 [--port P] [--host H] [--workers N]
//               [--theta T] [--method eff|ran|fsim|bas] [--shards S]
//               [--cloud-threads N] [--setup-threads N] [--go-hops H]
//               [--deadline-ms MS] [--load-snapshot DIR]
//
// Runs the offline pipeline once (or restores a snapshot), binds a socket
// (--port 0 asks the kernel; the bound port is printed either way as
// "listening on HOST:PORT"), and serves until SIGINT/SIGTERM.
//
// Zero-downtime reload: SIGHUP (or a client kReload frame, e.g.
// `ppsm_cli reload --connect HOST:PORT`) re-runs the pipeline from the
// SAME inputs — re-reading --in / --load-snapshot from disk, so replacing
// the file first publishes new data — and atomically swaps the snapshot
// in. Queries in flight finish on the snapshot they started on; no query
// is dropped or mixed across snapshots.

#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "net/ppsm_server.h"
#include "net/serving_system.h"
#include "tool_flags.h"

namespace ppsm::server_main {
namespace {

using tools::Args;
using tools::Fail;

PpsmServer* g_server = nullptr;
volatile std::sig_atomic_t g_stop = 0;

void OnHangup(int) {
  // NotifyReload is one eventfd write — async-signal-safe by design.
  if (g_server != nullptr) g_server->NotifyReload();
}

void OnTerminate(int) { g_stop = 1; }

int Usage() {
  std::cerr
      << "usage: ppsm_server (--in FILE | --load-snapshot DIR) --k K\n"
         "         [--port P (0 = ephemeral)] [--host H] [--workers N]\n"
         "         [--theta T] [--method eff|ran|fsim|bas] [--shards S]\n"
         "         [--cloud-threads N] [--setup-threads N] [--go-hops H]\n"
         "         [--deadline-ms MS]\n"
         "SIGHUP or `ppsm_cli reload --connect HOST:PORT` hot-swaps a\n"
         "freshly rebuilt snapshot with zero downtime.\n";
  return 2;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv, 1);
  if (!args.error().empty()) return Fail(args.error());
  const std::string in = args.Get("in");
  const std::string snapshot_in = args.Get("load-snapshot");
  if (in.empty() && snapshot_in.empty()) return Usage();

  auto config = tools::ParseDeploymentFlags(args, /*default_cloud_threads=*/1);
  if (!config.ok()) return Fail(config.status().ToString());

  // The build recipe doubles as the reload recipe: every invocation
  // re-reads the inputs from disk, so a SIGHUP after replacing the graph
  // file (or snapshot directory) publishes the new data.
  const auto build = [in, snapshot_in, config = *config] {
    return tools::BuildSystem(in, snapshot_in, config);
  };

  auto system = build();
  if (!system.ok()) return Fail(system.status().ToString());
  ServingSystem serving(std::move(*system), build);

  PpsmServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(args.GetInt("port", 7687));
  options.worker_threads =
      static_cast<size_t>(std::max(1L, args.GetInt("workers", 4)));
  auto server = PpsmServer::Start(&serving, options);
  if (!server.ok()) return Fail(server.status().ToString());
  g_server = server->get();

  std::signal(SIGHUP, OnHangup);
  std::signal(SIGINT, OnTerminate);
  std::signal(SIGTERM, OnTerminate);
  std::signal(SIGPIPE, SIG_IGN);

  // Machine-parsable (the smoke test and --port 0 users read this line).
  std::cout << "listening on " << options.host << ":" << (*server)->port()
            << " (snapshot v" << serving.version() << ")" << std::endl;

  uint64_t last_version = serving.version();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t version = serving.version();
    if (version != last_version) {
      std::cout << "hot-swapped to snapshot v" << version << std::endl;
      last_version = version;
    }
  }
  std::cout << "shutting down" << std::endl;
  g_server = nullptr;
  (*server)->Stop();
  return 0;
}

}  // namespace
}  // namespace ppsm::server_main

int main(int argc, char** argv) {
  return ppsm::server_main::Main(argc, argv);
}
