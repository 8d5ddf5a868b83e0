// The socket deployment and the traffic generators that drive it: an open
// loop with scheduled due times and a closed loop per connection.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "perfbench.h"

namespace perfbench {

using ppsm::Result;

Deployment::~Deployment() {
  for (ppsm::NetClient& client : clients) client.Close();
  if (server != nullptr) server->Stop();
}

Result<std::unique_ptr<Deployment>> Deploy(const Spec& spec,
                                           const Inputs& inputs,
                                           ppsm::PpsmSystem system) {
  auto deployment = std::make_unique<Deployment>();
  deployment->serving = std::make_unique<ppsm::ServingSystem>(
      std::move(system),
      [&spec, &inputs] { return SetupSystem(spec, inputs); });
  ppsm::PpsmServerOptions options;
  options.worker_threads = kCpus;
  Result<std::unique_ptr<ppsm::PpsmServer>> server =
      ppsm::PpsmServer::Start(deployment->serving.get(), options);
  if (!server.ok()) return server.status();
  deployment->server = std::move(server).value();
  for (size_t i = 0; i < kCpus; ++i) {
    Result<ppsm::NetClient> client =
        ppsm::NetClient::Connect("127.0.0.1", deployment->server->port());
    if (!client.ok()) return client.status();
    deployment->clients.push_back(std::move(client).value());
  }
  return deployment;
}

namespace {

// What one connection thread saw; merged after the phase.
struct ConnOutcome {
  Counts counts;
  std::vector<double> queue_wait_ms;
  std::vector<std::pair<Clock::time_point, double>> due_and_latency;
  size_t refused = 0;
  Clock::time_point last_reply{};
  AnswerLog answers;
};

// Sends one request and books the reply against `due`.
void SendOne(ppsm::NetClient& client, const Inputs& inputs, uint32_t index,
             Clock::time_point due, ConnOutcome* out) {
  Result<ppsm::QueryResponse> response =
      client.Execute(inputs.requests[index]);
  out->last_reply = Clock::now();
  const double ms = MillisBetween(due, out->last_reply);
  ++out->counts.attempted;
  if (!response.ok() || !response->ok()) {
    ++out->counts.failed;
    if (response.ok() &&
        response->status.code() == ppsm::StatusCode::kResourceExhausted &&
        !response->cloud.overflowed) {
      ++out->refused;
    }
    return;
  }
  out->queue_wait_ms.push_back(response->cloud.queue_wait_ms);
  out->due_and_latency.push_back({due, ms});
  out->answers.Add(index, std::move(response->matches));
}

}  // namespace

OpenLoopResult RunOpenLoop(Deployment& deployment, const Inputs& inputs,
                           double rate, double seconds, size_t* cursor,
                           AnswerLog* answers,
                           const std::function<void()>& during) {
  struct Item {
    Clock::time_point due;
    uint32_t index;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;  // Due requests no connection has picked up yet.
  bool done = false;
  std::atomic<size_t> completed{0};

  std::vector<ConnOutcome> outcomes(deployment.clients.size());
  std::vector<std::thread> senders;
  for (size_t c = 0; c < deployment.clients.size(); ++c) {
    senders.emplace_back([&, c] {
      for (;;) {
        Item item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          item = queue.front();
          queue.pop_front();
        }
        SendOne(deployment.clients[c], inputs, item.index, item.due,
                &outcomes[c]);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // One generator schedules every due time from the phase start; it wakes
  // for the next due time and releases everything due by then.
  OpenLoopResult result;
  const size_t total = static_cast<size_t>(rate * seconds);
  const Clock::time_point start = Clock::now();
  const auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };
  std::thread during_thread;
  Clock::time_point during_start{};
  Clock::time_point during_end{};
  result.send_lag_ms.reserve(total);
  for (size_t i = 0; i < total;) {
    std::this_thread::sleep_until(due_at(i));
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      for (; i < total && due_at(i) <= now; ++i) {
        queue.push_back({due_at(i), inputs.At((*cursor)++)});
        result.send_lag_ms.push_back(MillisBetween(due_at(i), now));
      }
    }
    cv.notify_all();
    if (during && !during_thread.joinable() && i >= total / 2) {
      during_thread = std::thread([&] {
        during_start = Clock::now();
        during();
        during_end = Clock::now();
      });
    }
  }
  result.backlog_end = total - completed.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& sender : senders) sender.join();
  if (during_thread.joinable()) during_thread.join();

  std::vector<std::pair<Clock::time_point, double>> due_and_latency;
  Clock::time_point last_reply = start;
  for (ConnOutcome& out : outcomes) {
    result.tally.attempted += out.counts.attempted;
    result.tally.failed += out.counts.failed;
    result.queue_wait_ms.insert(result.queue_wait_ms.end(),
                                out.queue_wait_ms.begin(),
                                out.queue_wait_ms.end());
    result.refused += out.refused;
    due_and_latency.insert(due_and_latency.end(),
                           out.due_and_latency.begin(),
                           out.due_and_latency.end());
    last_reply = std::max(last_reply, out.last_reply);
    answers->Merge(std::move(out.answers));
  }
  std::sort(due_and_latency.begin(), due_and_latency.end());
  for (const auto& [due, ms] : due_and_latency) {
    result.tally.latency_ms.push_back(ms);
    if (during && due >= during_start && due <= during_end) {
      result.during_ms.push_back(ms);
    }
  }
  if (during) result.during_s = MillisBetween(during_start, during_end) / 1e3;
  result.completed_qps = due_and_latency.size() /
                         (MillisBetween(start, last_reply) / 1e3);
  return result;
}

Tally RunClosedLoopNet(Deployment& deployment, const Inputs& inputs,
                       size_t connections, double seconds, size_t* cursor,
                       AnswerLog* answers) {
  std::atomic<size_t> next{*cursor};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<ConnOutcome> outcomes(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < end) {
        const uint32_t index = inputs.At(next.fetch_add(1));
        SendOne(deployment.clients[c], inputs, index, Clock::now(),
                &outcomes[c]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  *cursor = next.load();
  Tally tally;
  for (ConnOutcome& out : outcomes) {
    tally.attempted += out.counts.attempted;
    tally.failed += out.counts.failed;
    for (const auto& [sent, ms] : out.due_and_latency) {
      tally.latency_ms.push_back(ms);
      tally.done_s.push_back(
          (MillisBetween(start, sent) + ms) / 1e3);
    }
    answers->Merge(std::move(out.answers));
  }
  return tally;
}

}  // namespace perfbench
