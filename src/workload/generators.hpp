// Traffic generators: the synthetic workloads standing in for the
// production traffic the paper's experiments observe (see DESIGN.md §2).
//
//   CbrSender            constant bit rate (a PacedFlow with a schedule)
//   OnOffSender          exponential on/off bursts — sub-RTT congestion
//   IncastBurst          N senders fire a B-byte burst at one receiver
//                        simultaneously (the canonical micro-burst source)
//   PoissonFlowGenerator Poisson arrivals of bounded-Pareto-sized flows
//   TcpIncast            the incast shape over real TCP connections
//   TcpPoissonFlowGenerator  Poisson/bounded-Pareto arrivals over TCP
//
// The TCP generators precompute the whole arrival schedule (times, sizes,
// senders) from the Rng at start(), before the simulation runs, so a fixed
// seed yields the same schedule whatever the network does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/host/flow.hpp"
#include "src/host/host.hpp"
#include "src/host/tcp.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"

namespace tpp::workload {

// On/off (burst/idle) traffic: during "on" periods sends at `peakRateBps`,
// idle otherwise. On/off durations are exponentially distributed.
class OnOffSender {
 public:
  struct Config {
    host::FlowSpec flow;            // rateBps is ignored (peak used instead)
    double peakRateBps = 1e9;
    sim::Time meanOn = sim::Time::ms(1);
    sim::Time meanOff = sim::Time::ms(9);
  };

  OnOffSender(host::Host& src, Config config, sim::Rng rng);

  void start(sim::Time at);
  void stop();

  std::uint64_t bytesSent() const { return flow_.bytesSent(); }
  host::PacedFlow& flow() { return flow_; }

 private:
  void toggle(bool on);

  host::Host& src_;
  Config config_;
  sim::Rng rng_;
  host::PacedFlow flow_;
  bool running_ = false;
  sim::EventHandle pending_;
};

// Synchronized incast: each of the `senders` transmits `burstBytes` to the
// receiver starting at the same instant, optionally repeating every
// `period`. This is how shallow egress buffers are driven into the
// 100 µs-scale queue excursions §2.1 targets.
class IncastBurst {
 public:
  struct Config {
    net::MacAddress dstMac;
    net::Ipv4Address dstIp;
    std::uint64_t burstBytes = 64 * 1024;
    std::size_t payloadBytes = 1000;
    double lineRateBps = 1e9;
    sim::Time period = sim::Time::zero();  // zero = one shot
    std::uint16_t dstPort = 21000;
  };

  IncastBurst(std::vector<host::Host*> senders, Config config);

  void start(sim::Time at);
  // Cancels future rounds and halts any in-flight senders.
  void stop();
  std::size_t burstsFired() const { return bursts_; }

 private:
  void fire();

  std::vector<host::Host*> senders_;
  Config config_;
  std::vector<std::unique_ptr<host::PacedFlow>> flows_;
  std::size_t bursts_ = 0;
  bool running_ = false;
  sim::EventHandle pending_;
};

// Poisson flow arrivals with bounded-Pareto flow sizes (heavy-tailed, the
// standard datacenter mix): each arrival starts a fresh line-rate flow from
// a random sender to a fixed receiver.
class PoissonFlowGenerator {
 public:
  struct Config {
    net::MacAddress dstMac;
    net::Ipv4Address dstIp;
    double flowsPerSecond = 100.0;
    double paretoShape = 1.2;
    double minFlowBytes = 10.0 * 1024;
    double maxFlowBytes = 10.0 * 1024 * 1024;
    double lineRateBps = 1e9;
    std::size_t payloadBytes = 1000;
    std::uint16_t dstPort = 22000;
  };

  PoissonFlowGenerator(std::vector<host::Host*> senders, Config config,
                       sim::Rng rng);

  void start(sim::Time at);
  void stop();

  std::size_t flowsStarted() const { return flowsStarted_; }
  std::uint64_t bytesOffered() const { return bytesOffered_; }

 private:
  void arrive();

  std::vector<host::Host*> senders_;
  Config config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<host::PacedFlow>> flows_;
  bool running_ = false;
  std::size_t flowsStarted_ = 0;
  std::uint64_t bytesOffered_ = 0;
  sim::EventHandle pending_;
};

// One TCP flow's life, as the generators see it. `arrival`, `bytes` and
// `sender` are fixed when the schedule is drawn; `completion`/`failed` are
// filled in by the connection's callbacks as the simulation runs.
struct TcpFlowRecord {
  sim::Time arrival;
  std::uint64_t bytes = 0;
  std::size_t sender = 0;  // index into the generator's sender list
  sim::Time completion = sim::Time::zero();  // clean close; zero = pending
  bool failed = false;

  bool finished() const { return completion > sim::Time::zero(); }
  bool done() const { return finished() || failed; }
  sim::Time fct() const { return completion - arrival; }
};

// Synchronized incast over TCP: every sender opens a connection to the
// receiver's TcpListener (which the caller owns) and streams `burstBytes`.
// Sender i binds local port basePort + i. One shot.
class TcpIncast {
 public:
  struct Config {
    net::MacAddress dstMac;
    net::Ipv4Address dstIp;
    std::uint16_t serverPort = 23000;
    std::uint16_t basePort = 30000;
    std::uint64_t burstBytes = 64 * 1024;
    host::TcpConnection::Config conn;
  };

  TcpIncast(std::vector<host::Host*> senders, Config config);

  void start(sim::Time at);

  std::size_t flowCount() const { return conns_.size(); }
  // Per-sender connection, e.g. for attaching a TppTcpController.
  host::TcpConnection& connection(std::size_t i) { return *conns_.at(i); }
  const std::vector<TcpFlowRecord>& records() const { return records_; }
  bool allDone() const;
  std::size_t finishedCount() const;
  std::size_t failedCount() const;

 private:
  std::vector<host::Host*> senders_;
  Config config_;
  std::vector<std::unique_ptr<host::TcpConnection>> conns_;
  std::vector<TcpFlowRecord> records_;
};

// Poisson arrivals of bounded-Pareto-sized flows, each a fresh TCP
// connection from a (uniformly drawn) sender to the receiver's listener.
// The schedule covers [at, at + horizon) and is drawn entirely at start();
// flow f binds local port basePort + f.
class TcpPoissonFlowGenerator {
 public:
  struct Config {
    net::MacAddress dstMac;
    net::Ipv4Address dstIp;
    std::uint16_t serverPort = 23000;
    std::uint16_t basePort = 40000;
    double flowsPerSecond = 200.0;
    double paretoShape = 1.2;
    double minFlowBytes = 2.0 * 1024;
    double maxFlowBytes = 1.0 * 1024 * 1024;
    sim::Time horizon = sim::Time::ms(100);
    std::size_t maxFlows = 4096;  // schedule cap (also bounds the ports)
    host::TcpConnection::Config conn;
  };

  TcpPoissonFlowGenerator(std::vector<host::Host*> senders, Config config,
                          sim::Rng rng);

  void start(sim::Time at);

  std::size_t flowCount() const { return conns_.size(); }
  host::TcpConnection& connection(std::size_t i) { return *conns_.at(i); }
  // The flow log: (arrival, bytes, sender) are the drawn schedule, plus
  // completion as it happens.
  const std::vector<TcpFlowRecord>& records() const { return records_; }
  std::uint64_t bytesOffered() const { return bytesOffered_; }
  bool allDone() const;
  std::size_t finishedCount() const;
  std::size_t failedCount() const;

 private:
  std::vector<host::Host*> senders_;
  Config config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<host::TcpConnection>> conns_;
  std::vector<TcpFlowRecord> records_;
  std::uint64_t bytesOffered_ = 0;
};

}  // namespace tpp::workload
