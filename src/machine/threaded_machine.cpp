#include "machine/threaded_machine.hpp"

#include <chrono>
#include <span>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>

#include <cctype>
#include <fstream>
#include <string>
#endif

namespace concert {

namespace {

#ifdef __linux__
/// Parses a /sys cpulist ("0-3,8,10-11") into CPU ids. Malformed input just
/// yields fewer entries — pinning is best-effort.
std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::size_t i = 0;
  while (i < list.size()) {
    if (!std::isdigit(static_cast<unsigned char>(list[i]))) {
      ++i;
      continue;
    }
    std::size_t end;
    int lo = std::stoi(list.substr(i), &end);
    i += end;
    int hi = lo;
    if (i < list.size() && list[i] == '-') {
      ++i;
      hi = std::stoi(list.substr(i), &end);
      i += end;
    }
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
  }
  return cpus;
}

/// CPU ids interleaved across NUMA domains (node0 cpu0, node1 cpu0, node0
/// cpu1, ...), so consecutive node threads land on different memory domains.
/// Falls back to 0..hw-1 when /sys exposes no NUMA topology.
std::vector<int> numa_interleaved_cpus() {
  std::vector<std::vector<int>> domains;
  for (int d = 0;; ++d) {
    std::ifstream f("/sys/devices/system/node/node" + std::to_string(d) + "/cpulist");
    if (!f.is_open()) break;
    std::string list;
    std::getline(f, list);
    std::vector<int> cpus = parse_cpulist(list);
    if (!cpus.empty()) domains.push_back(std::move(cpus));
  }
  std::vector<int> plan;
  if (domains.empty()) {
    const unsigned hw = std::thread::hardware_concurrency();
    for (unsigned c = 0; c < hw; ++c) plan.push_back(static_cast<int>(c));
    return plan;
  }
  for (std::size_t i = 0; !domains.empty(); ++i) {
    bool any = false;
    for (auto& dom : domains) {
      if (i < dom.size()) {
        plan.push_back(dom[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return plan;
}

bool pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}
#else
std::vector<int> numa_interleaved_cpus() { return {}; }
bool pin_current_thread(int) { return false; }
#endif

}  // namespace

ThreadedMachine::ThreadedMachine(std::size_t nodes, MachineConfig config)
    : Machine(nodes, config) {
  for (auto& n : nodes_) n->init_inbox(nodes);
}

ThreadedMachine::~ThreadedMachine() = default;

void ThreadedMachine::route(Node& from, Message&& msg) {
  // The sender counts the create before the channel's release store
  // publishes the message, so the receiver's retire can never be summed
  // without it.
  from.work_created();
  from.post(node(msg.dst), std::move(msg));
}

ThreadedMachine::Credits ThreadedMachine::sum_credits() const {
  Credits c{external_created_, external_retired_};
  for (const auto& n : nodes_) c.retired += n->credits_retired();
  for (const auto& n : nodes_) c.created += n->credits_created();
  return c;
}

void ThreadedMachine::node_loop(NodeId id) {
  Node& nd = node(id);
  // A loop turn is one inbox batch: up to kInboxBatch messages delivered in
  // place, each run of a channel segment through one Node::deliver call. A
  // turn whose consume came back empty runs a quantum of up to kReadyBatch
  // ready context slices instead, so the inbox keeps priority turn by turn.
  // The messages a turn routed are published when it ends (or when a channel
  // segment fills), and only then are its credits retired — after every
  // product of the turn (a routed reply, an enqueued context, a staged or
  // flushed message) has counted its own create, so no instant shows
  // unfinished work as done.
  constexpr std::size_t kInboxBatch = 128;
  constexpr std::size_t kReadyBatch = 32;
  const auto deliver_run = [&nd](std::span<Message> run) { nd.deliver(run); };
  const bool merge = config_.merge_waves;
  const bool oversubscribed = std::thread::hardware_concurrency() < nodes_.size() + 1;
  unsigned idle = 0;
  unsigned turns = 0;
  while (true) {
    // Health sampling (concert-insight): every 1024 loop turns, from the
    // node's own thread — no cross-thread reads, no cost-model charge. Turn 0
    // samples too, so even short runs record a baseline. A failed run is
    // abandoned here too, so a node that never idles still stops.
    if ((turns++ & 0x3ff) == 0) {
      nd.sample_health();
      if (failed_.load(std::memory_order_relaxed)) break;
    }
    if (const std::size_t delivered = nd.consume_inbox(kInboxBatch, deliver_run); delivered > 0) {
      nd.publish_sends();
      nd.work_retired(delivered);  // the delivered messages' credits
      idle = 0;
      continue;
    }
    // Ready quantum: one publish and one retire for up to kReadyBatch slices
    // (a lock deferral counts as a slice; its re-queue made a fresh credit).
    // Under merge_waves each slice still stages its own sends — the spawn
    // burst that seeds a phase, a wrapper's replies — and flushes them as
    // per-destination bundles when it ends, so the receiver sees the same
    // contiguous same-method runs to merge as with one slice per turn.
    std::size_t ran = 0;
    while (ran < kReadyBatch) {
      nd.set_wave_staging(merge);
      const bool stepped = nd.run_one();
      nd.set_wave_staging(false);
      if (!stepped) break;
      if (merge) nd.flush_all_outboxes();
      ++ran;
    }
    if (ran > 0) {
      nd.publish_sends();
      nd.work_retired(ran);  // the dequeued contexts' enqueue credits
      idle = 0;
      continue;
    }
    // Idle drain: ready queue and inbox are both empty, so any staged
    // outbox messages leave now. Each staged message holds a credit (created
    // in Node::send, retired at flush after the bundle's own exists), so
    // quiescence cannot be declared while a message sits in an outbox.
    if (nd.flush_all_outboxes() > 0) {
      nd.publish_sends();
      idle = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    // Escalating idle backoff: brief spin (a reply is often one push away),
    // then yield, then park on the inbox so an idle node does not burn a
    // core. With more node threads than hardware cores the spin phase is
    // skipped — an idle spinner would be stealing the timeslice of the very
    // thread it is waiting on. run_until_quiescent wakes every parked node
    // at shutdown; the park timeout is only a backstop.
    ++idle;
    if (!oversubscribed && idle < 16) continue;
    if (oversubscribed || idle < 64) {
      std::this_thread::yield();
      continue;
    }
    nd.park_inbox(std::chrono::microseconds(200));
  }
}

void ThreadedMachine::run_until_quiescent() {
  arm_postmortem();
  stop_.store(false, std::memory_order_release);
  failed_.store(false, std::memory_order_relaxed);
  failure_ = nullptr;
  // NUMA-interleaved placement plan (MachineConfig::pin_threads): node i runs
  // on plan[i % plan.size()]. Each thread pins *itself* before its first
  // action, so the affinity applies to the whole loop and the pin counter is
  // touched only by the stats' owning thread.
  std::vector<int> plan;
  if (config_.pin_threads) plan = numa_interleaved_cpus();
  // Node threads publish their sends once per loop turn; the thread that
  // seeds and inspects the machine between runs publishes each at once.
  for (auto& n : nodes_) n->set_deferred_publish(true);
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int cpu = plan.empty() ? -1 : plan[i % plan.size()];
    threads.emplace_back([this, i, cpu] {
      const NodeId id = static_cast<NodeId>(i);
      if (cpu >= 0 && pin_current_thread(cpu)) ++node(id).stats.thread_pins;
      // A failed check must not unwind out of the thread (std::terminate):
      // the first one stops the run and reaches the caller after the join.
      try {
        node_loop(id);
      } catch (...) {
        if (!failed_.exchange(true, std::memory_order_acq_rel)) failure_ = std::current_exception();
      }
    });
  }
  // Equal sums are a stable quiescence (header comment). More retires than
  // creates can only come from a retire with no matching create — a credit
  // imbalance that would otherwise keep this loop from ever seeing equality —
  // so the run is abandoned and the check after the join reports it. With
  // the watchdog armed, the monitor also tracks the heartbeat (the sum of
  // both): sums stuck apart while no node acts (a leaked credit, the
  // threaded analogue of a lost reply on a real transport) is a stall. A
  // busy machine keeps moving the heartbeat, so a declared stall implies
  // every node is idle and the join below cannot hang.
  const std::uint64_t timeout_ms = config_.stall_timeout;
  Credits c = sum_credits();
  std::uint64_t last_beat = c.created + c.retired;
  auto last_change = std::chrono::steady_clock::now();
  bool stalled = false;
  while (c.retired != c.created && !failed_.load(std::memory_order_acquire)) {
    if (c.retired > c.created) {
      failed_.store(true, std::memory_order_relaxed);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    c = sum_credits();
    if (timeout_ms == 0) continue;
    const std::uint64_t beat = c.created + c.retired;
    if (beat != last_beat) {
      last_beat = beat;
      last_change = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_change >=
               std::chrono::milliseconds(timeout_ms)) {
      stalled = true;
      break;
    }
  }
  stop_.store(true, std::memory_order_release);
  // Parked nodes poll stop_ only between parks; wake them so shutdown does
  // not wait out the park timeout per node.
  for (std::size_t i = 0; i < nodes_.size(); ++i) node(static_cast<NodeId>(i)).wake_inbox();
  for (auto& t : threads) t.join();
  // A thread that threw may have left a turn's sends unpublished.
  for (auto& n : nodes_) {
    n->publish_sends();
    n->set_deferred_publish(false);
  }
  // Node threads are gone; memory housekeeping and the recorders are safe to
  // touch from here. A detected stall dumps the machine-readable postmortem
  // (concert-insight) before the check throws; a node thread's error, a
  // credit imbalance or any other protocol panic on the way out (e.g. the
  // quiescence verifier) dumps one too, then rethrows.
  quiesce_memory();
  const std::string pm = stalled ? dump_postmortem("stall") : std::string();
  try {
    if (failure_) std::rethrow_exception(failure_);
    const Credits end = sum_credits();
    CONCERT_CHECK(!stalled, "threaded engine stalled: no scheduling progress for "
                                << timeout_ms << " ms with " << end.created - end.retired
                                << " outstanding work credit(s)"
                                << (pm.empty() ? "" : "\npostmortem written to " + pm) << "\n"
                                << stall_report());
    // Unless the run was abandoned, every thread drained to idle before it
    // exited, so each create now has its retire and no inbox holds a
    // message; anything else is a retire with no create (quiescence may then
    // have been declared early and stranded a message).
    std::size_t stranded = 0;
    for (const auto& n : nodes_) stranded += n->inbox_empty() ? 0 : 1;
    CONCERT_CHECK(end.retired == end.created && stranded == 0,
                  "work-credit imbalance: " << end.created << " created, " << end.retired
                                            << " retired, " << stranded
                                            << " node(s) with undelivered messages");
    verify_at_quiescence();
  } catch (...) {
    dump_postmortem("panic");
    throw;
  }
}

}  // namespace concert
