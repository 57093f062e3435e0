// Testbed: owns the simulator, switches, hosts and links, wires them up,
// and installs shortest-path routes — the scaffolding every experiment,
// test and bench builds on.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/asic/switch.hpp"
#include "src/core/interference.hpp"
#include "src/host/host.hpp"
#include "src/net/link.hpp"
#include "src/sim/simulator.hpp"

namespace tpp::host {

class Testbed {
 public:
  // The one simulator every node of this testbed runs on.
  sim::Simulator& sim() { return sim_; }

  // Runs the simulator until `until`; returns the events executed.
  std::uint64_t run(sim::Time until = sim::Time::max()) {
    return sim_.run(until);
  }

  // Creates a host with deterministic MAC 02:00:…:<n> and IP 10.0.0.<n>.
  Host& addHost(std::string name = {});
  asic::Switch& addSwitch(asic::SwitchConfig config = {},
                          std::string name = {});

  // Wires a full-duplex link and records the adjacency for routing.
  net::DuplexLink& link(net::Node& a, std::size_t portA, net::Node& b,
                        std::size_t portB, std::uint64_t rateBps,
                        sim::Time delay);

  // Installs, on every switch, an L3 /32 route and an L2 entry for every
  // host, along BFS shortest paths. Call after all links are wired.
  void installAllRoutes();

  Host& host(std::size_t i) { return *hosts_.at(i); }
  asic::Switch& sw(std::size_t i) { return *switches_.at(i); }
  std::size_t hostCount() const { return hosts_.size(); }
  std::size_t switchCount() const { return switches_.size(); }
  // Links in wiring order (fault scenarios arm specific channels).
  net::DuplexLink& linkAt(std::size_t i) { return *links_.at(i); }
  std::size_t linkCount() const { return links_.size(); }

  // The switch a host hangs off, and that switch's port towards the host.
  struct Attachment {
    asic::Switch* sw = nullptr;
    std::size_t port = 0;
  };
  Attachment attachmentOf(const Host& h) const;

  // One wired link's endpoints, in link() call order — the adjacency a
  // PathOracle walks. edgeAt(i) describes linkAt(i).
  struct Edge {
    net::Node* a;
    std::size_t portA;
    net::Node* b;
    std::size_t portB;
  };
  const Edge& edgeAt(std::size_t i) const { return edges_.at(i); }

  // ------------------------------------------- interference install gate
  // Declares a lock word (and the scratch it protects) for every later
  // installTask() analysis — e.g. the standard RCP lock,
  // apps::standardLockOptions().
  void declareLock(core::LockSpec lock) {
    interferenceOptions_.locks.push_back(std::move(lock));
  }

  // Admission control for concurrent tasks: analyzes `summary` against
  // every already-installed task and rejects the registration if the
  // combined deployment has interference errors (the installed set stays
  // unchanged and provably conflict-free). On rejection the error
  // diagnostics, one per line, are returned via `whyNot` if non-null.
  bool installTask(core::EffectSummary summary,
                   std::string* whyNot = nullptr);

  const std::vector<core::EffectSummary>& installedTasks() const {
    return installedTasks_;
  }
  // The current installed set's full report (benign matrix included).
  core::InterferenceReport interferenceReport() const {
    return core::analyzeInterference(installedTasks_, interferenceOptions_);
  }

 private:
  // Declared first so it is destroyed last: queued events still hold
  // packets and pointers into the nodes below.
  sim::Simulator sim_;
  std::vector<std::unique_ptr<asic::Switch>> switches_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<net::DuplexLink>> links_;
  std::vector<Edge> edges_;
  std::vector<core::EffectSummary> installedTasks_;
  core::InterferenceOptions interferenceOptions_;
};

// ---------------------------------------------------------------- shapes

struct LinkParams {
  std::uint64_t rateBps = 1'000'000'000;
  sim::Time delay = sim::Time::us(5);
};

// host0 — sw0 — sw1 — … — sw(n-1) — host1, homogeneous links. The Fig 1
// topology with n = 3.
void buildChain(Testbed& tb, std::size_t switches, LinkParams linkParams,
                asic::SwitchConfig switchConfig = {});

// `pairs` sender hosts on sw0, `pairs` receiver hosts on sw1, with a single
// bottleneck link between the switches. Sender i talks to receiver i
// (= host(pairs + i)). The Fig 2 topology.
void buildDumbbell(Testbed& tb, std::size_t pairs, LinkParams edge,
                   LinkParams bottleneck,
                   asic::SwitchConfig switchConfig = {});

// `senders` hosts plus one receiver (the last host) on a single switch —
// the incast/micro-burst shape (§2.1).
void buildStar(Testbed& tb, std::size_t senders, LinkParams linkParams,
               asic::SwitchConfig switchConfig = {});

// k-ary fat tree (the canonical datacenter fabric): (k/2)^2 core switches,
// k pods of k/2 aggregation + k/2 edge switches, k/2 hosts per edge —
// k^3/4 hosts total. Upward routing is ECMP (multipath default routes);
// downward routing is per-host /32s. Returns an index for addressing the
// pieces. Requires even k >= 2.
struct FatTreeIndex {
  std::size_t k = 0;

  std::size_t radix() const { return k / 2; }
  std::size_t coreCount() const { return radix() * radix(); }
  std::size_t hostCount() const { return k * radix() * radix(); }

  // Testbed switch index of core c / aggregation (pod,a) / edge (pod,e).
  std::size_t coreSw(std::size_t c) const { return c; }
  std::size_t aggSw(std::size_t pod, std::size_t a) const {
    return coreCount() + pod * k + a;
  }
  std::size_t edgeSw(std::size_t pod, std::size_t e) const {
    return coreCount() + pod * k + radix() + e;
  }
  // Testbed host index of host h under edge e of pod.
  std::size_t host(std::size_t pod, std::size_t e, std::size_t h) const {
    return pod * radix() * radix() + e * radix() + h;
  }
};

FatTreeIndex buildFatTree(Testbed& tb, std::size_t k, LinkParams linkParams,
                          asic::SwitchConfig switchConfig = {});

// Predicts the switch-by-switch path a 5-tuple's packets take through a
// built testbed, by replaying each hop's L3 longest-prefix lookup with the
// pipeline's own ECMP flow hash (asic::ecmpFlowHash) over a snapshot of
// the wiring. Covers L3-routed traffic — every TCP-over-UDP segment and
// TPP probe; TCAM rules (which match before L3) are not modelled.
//
// This is what makes ECMP *testable*: the property suite asserts the
// predicted path is one of the analytic equal-cost shortest paths and that
// actual forwarded traffic agrees with the prediction.
class PathOracle {
 public:
  explicit PathOracle(const Testbed& tb);

  struct Hop {
    const asic::Switch* sw = nullptr;
    std::size_t inPort = 0;   // port the packet arrived on
    std::size_t outPort = 0;  // port the L3 lookup selected
  };

  // The full switch path from `src` to `dst` for one flow's 5-tuple.
  // Empty if routing dead-ends, leaves the fabric at the wrong host, or
  // exceeds 64 hops (a loop).
  std::vector<Hop> path(const Host& src, const Host& dst,
                        std::uint16_t srcPort, std::uint16_t dstPort,
                        std::uint8_t protocol = 17) const;

 private:
  const Testbed& tb_;
  // (node, egress port) -> (peer node, peer ingress port).
  struct Peer {
    const net::Node* node = nullptr;
    std::size_t port = 0;
  };
  std::unordered_map<const net::Node*, std::vector<Peer>> peers_;
};

}  // namespace tpp::host
