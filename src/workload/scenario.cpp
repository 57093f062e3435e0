#include "src/workload/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "src/apps/task_ids.hpp"
#include "src/apps/tpp_tcp.hpp"
#include "src/host/tcp.hpp"
#include "src/monitor/ground_truth.hpp"
#include "src/monitor/sketch.hpp"
#include "src/host/telemetry.hpp"
#include "src/host/topology.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/random.hpp"
#include "src/workload/generators.hpp"

namespace tpp::workload {
namespace {

// Fixed port plan: every destination host listens on kServerPort; flow f
// binds local port kBasePort + f (maxFlows <= 20000 keeps the range clear
// of the listener port and the 16-bit ceiling).
constexpr std::uint16_t kServerPort = 23000;
constexpr std::uint32_t kBasePort = 24000;

// FNV-1a 64 over little-endian u64s — the digest primitive for the flow
// log and the queue samples.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

std::string_view topologyTypeName(TopologyType t) {
  switch (t) {
    case TopologyType::FatTree: return "fattree";
    case TopologyType::Chain: return "chain";
    case TopologyType::Star: return "star";
    case TopologyType::Dumbbell: return "dumbbell";
  }
  return "?";
}

std::string_view trafficPatternName(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::Poisson: return "poisson";
    case TrafficPattern::Incast: return "incast";
    case TrafficPattern::Shuffle: return "shuffle";
  }
  return "?";
}

std::size_t ScenarioConfig::hostCount() const {
  switch (topology) {
    case TopologyType::FatTree: return k * (k / 2) * (k / 2);
    case TopologyType::Chain: return 2;
    case TopologyType::Star: return nodes + 1;  // senders + receiver
    case TopologyType::Dumbbell: return 2 * nodes;
  }
  return 0;
}

std::vector<std::size_t> ScenarioConfig::participantHosts() const {
  const std::size_t total = hostCount();
  std::size_t n = participants == 0 ? total : std::min(participants, total);
  std::vector<std::size_t> out;
  out.reserve(n);
  if (n == 0) return out;
  // Stride-spread so a subset still spans pods/edges instead of clustering
  // under one switch.
  const std::size_t stride = std::max<std::size_t>(1, total / n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(i * stride);
  return out;
}

// ------------------------------------------------------------------ parse

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// The parser's working state: the config under construction plus, for the
// cross-field checks, the line each relevant key was set on (0 = default).
struct ParseCtx {
  ScenarioConfig c;
  int line = 0;  // current line, for error attribution
  std::string error;

  int linePattern = 0;
  int lineParticipants = 0;
  int lineMaxFlows = 0;
  int lineFanin = 0;
  int lineTopology = 0;

  bool fail(const std::string& what, int at = -1) {
    if (error.empty()) {
      error = "line " + std::to_string(at < 0 ? line : at) + ": " + what;
    }
    return false;
  }
};

bool parseU64(ParseCtx& ctx, std::string_view key, std::string_view v,
              std::uint64_t& out, std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t x = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc{} || p != v.data() + v.size()) {
    return ctx.fail(std::string(key) + ": not an integer: '" +
                    std::string(v) + "'");
  }
  if (x < lo || x > hi) {
    return ctx.fail(std::string(key) + ": " + std::to_string(x) +
                    " out of range [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
  }
  out = x;
  return true;
}

bool parseSize(ParseCtx& ctx, std::string_view key, std::string_view v,
               std::size_t& out, std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t x = 0;
  if (!parseU64(ctx, key, v, x, lo, hi)) return false;
  out = static_cast<std::size_t>(x);
  return true;
}

bool parseF64(ParseCtx& ctx, std::string_view key, std::string_view v,
              double& out, double lo, double hi) {
  double x = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc{} || p != v.data() + v.size() || !std::isfinite(x)) {
    return ctx.fail(std::string(key) + ": not a number: '" + std::string(v) +
                    "'");
  }
  if (x < lo || x > hi) {
    return ctx.fail(std::string(key) + ": value out of range [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  out = x;
  return true;
}

bool parseOnOff(ParseCtx& ctx, std::string_view key, std::string_view v,
                bool& out) {
  if (v == "on") out = true;
  else if (v == "off") out = false;
  else return ctx.fail(std::string(key) + ": expected on|off, got '" +
                       std::string(v) + "'");
  return true;
}

bool handleScenarioKey(ParseCtx& ctx, std::string_view key,
                       std::string_view v) {
  ScenarioConfig& c = ctx.c;
  if (key == "name") {
    if (v.empty()) return ctx.fail("name: must be non-empty");
    for (char ch : v) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' || ch == '-' ||
                      ch == '.';
      if (!ok) {
        return ctx.fail(
            "name: only [A-Za-z0-9_.-] allowed, got '" + std::string(v) + "'");
      }
    }
    c.name = std::string(v);
    return true;
  }
  if (key == "seed") {
    return parseU64(ctx, key, v, c.seed, 0, UINT64_MAX);
  }
  if (key == "shards") {
    if (!parseSize(ctx, key, v, c.shards, 0, UINT64_MAX)) return false;
    if (c.shards != 1) {
      return ctx.fail("shards must be 1 (every run uses one simulator)");
    }
    return true;
  }
  if (key == "horizon_ms") {
    return parseF64(ctx, key, v, c.horizonMs, 0.001, 10000.0);
  }
  return ctx.fail("unknown key '" + std::string(key) + "' in [scenario]");
}

bool handleTopologyKey(ParseCtx& ctx, std::string_view key,
                       std::string_view v) {
  ScenarioConfig& c = ctx.c;
  if (key == "type") {
    ctx.lineTopology = ctx.line;
    if (v == "fattree") c.topology = TopologyType::FatTree;
    else if (v == "chain") c.topology = TopologyType::Chain;
    else if (v == "star") c.topology = TopologyType::Star;
    else if (v == "dumbbell") c.topology = TopologyType::Dumbbell;
    else return ctx.fail(
        "type: expected fattree|chain|star|dumbbell, got '" + std::string(v) +
        "'");
    return true;
  }
  if (key == "k") {
    if (!parseSize(ctx, key, v, c.k, 4, 32)) return false;
    if (c.k % 2 != 0) {
      return ctx.fail("k: fat-tree arity must be even, got " +
                      std::to_string(c.k));
    }
    return true;
  }
  if (key == "nodes") return parseSize(ctx, key, v, c.nodes, 1, 512);
  if (key == "link_gbps") return parseF64(ctx, key, v, c.linkGbps, 0.001, 400.0);
  if (key == "link_delay_us") {
    return parseF64(ctx, key, v, c.linkDelayUs, 0.01, 10000.0);
  }
  if (key == "buffer_kb") return parseU64(ctx, key, v, c.bufferKb, 1, 1 << 20);
  if (key == "ecn_threshold_kb") {
    return parseU64(ctx, key, v, c.ecnThresholdKb, 0, 1 << 20);
  }
  return ctx.fail("unknown key '" + std::string(key) + "' in [topology]");
}

bool handleWorkloadKey(ParseCtx& ctx, std::string_view key,
                       std::string_view v) {
  ScenarioConfig& c = ctx.c;
  if (key == "pattern") {
    ctx.linePattern = ctx.line;
    if (v == "poisson") c.pattern = TrafficPattern::Poisson;
    else if (v == "incast") c.pattern = TrafficPattern::Incast;
    else if (v == "shuffle") c.pattern = TrafficPattern::Shuffle;
    else return ctx.fail("pattern: expected poisson|incast|shuffle, got '" +
                         std::string(v) + "'");
    return true;
  }
  if (key == "size_dist") {
    if (!flowSizeDistFromName(v, c.sizeDist)) {
      return ctx.fail(
          "size_dist: expected websearch|datamining|pareto|fixed, got '" +
          std::string(v) + "'");
    }
    return true;
  }
  if (key == "size_scale") {
    return parseF64(ctx, key, v, c.sizeScale, 1e-6, 1000.0);
  }
  if (key == "fixed_kb") return parseU64(ctx, key, v, c.fixedKb, 1, 1 << 20);
  if (key == "load") return parseF64(ctx, key, v, c.load, 0.0, 1.0);
  if (key == "flows_per_sec") {
    return parseF64(ctx, key, v, c.flowsPerSec, 0.0, 1e9);
  }
  if (key == "max_flows") {
    ctx.lineMaxFlows = ctx.line;
    return parseSize(ctx, key, v, c.maxFlows, 1, 20000);
  }
  if (key == "participants") {
    ctx.lineParticipants = ctx.line;
    return parseSize(ctx, key, v, c.participants, 0, 1 << 20);
  }
  if (key == "mss") {
    std::size_t mss = 0;
    if (!parseSize(ctx, key, v, mss, 100, 9000)) return false;
    c.mss = static_cast<std::uint32_t>(mss);
    return true;
  }
  if (key == "fanin") {
    ctx.lineFanin = ctx.line;
    return parseSize(ctx, key, v, c.fanin, 1, 4096);
  }
  if (key == "period_us") {
    return parseF64(ctx, key, v, c.periodUs, 0.1, 1e6);
  }
  if (key == "rounds") return parseSize(ctx, key, v, c.rounds, 1, 10000);
  if (key == "stagger_us") {
    return parseF64(ctx, key, v, c.staggerUs, 0.0, 1e6);
  }
  return ctx.fail("unknown key '" + std::string(key) + "' in [workload]");
}

bool handleTppKey(ParseCtx& ctx, std::string_view key, std::string_view v) {
  ScenarioConfig& c = ctx.c;
  if (key == "controller") return parseOnOff(ctx, key, v, c.tppController);
  if (key == "queue_threshold_kb") {
    return parseU64(ctx, key, v, c.queueThresholdKb, 1, 1 << 20);
  }
  if (key == "max_controllers") {
    return parseSize(ctx, key, v, c.maxControllers, 0, 20000);
  }
  return ctx.fail("unknown key '" + std::string(key) + "' in [tpp]");
}

bool handleMonitorKey(ParseCtx& ctx, std::string_view key,
                      std::string_view v) {
  ScenarioConfig& c = ctx.c;
  if (key == "sketch") return parseOnOff(ctx, key, v, c.monitorSketch);
  if (key == "rows") return parseSize(ctx, key, v, c.sketchRows, 1, 8);
  if (key == "width") return parseSize(ctx, key, v, c.sketchWidth, 2, 1024);
  if (key == "stride") {
    std::size_t stride = 0;
    if (!parseSize(ctx, key, v, stride, 1, 64)) return false;
    c.sketchStride = static_cast<std::uint32_t>(stride);
    return true;
  }
  if (key == "hh_threshold") {
    return parseU64(ctx, key, v, c.hhThresholdPkts, 1, 1 << 20);
  }
  return ctx.fail("unknown key '" + std::string(key) + "' in [monitor]");
}

bool handleFaultsKey(ParseCtx& ctx, std::string_view key, std::string_view v) {
  ScenarioConfig& c = ctx.c;
  if (key == "drop_rate") return parseF64(ctx, key, v, c.dropRate, 0.0, 0.5);
  if (key == "corrupt_rate") {
    return parseF64(ctx, key, v, c.corruptRate, 0.0, 0.5);
  }
  return ctx.fail("unknown key '" + std::string(key) + "' in [faults]");
}

bool handleMetricsKey(ParseCtx& ctx, std::string_view key,
                      std::string_view v) {
  if (key == "queue_sample_us") {
    return parseF64(ctx, key, v, ctx.c.queueSampleUs, 1.0, 1e5);
  }
  return ctx.fail("unknown key '" + std::string(key) + "' in [metrics]");
}

// The cross-field checks a single key's range test cannot express. Errors
// are attributed to the line that set the offending value (line 1 when it
// was a default interacting badly with an explicit setting elsewhere).
bool validate(ParseCtx& ctx) {
  const ScenarioConfig& c = ctx.c;
  const auto at = [](int line) { return line > 0 ? line : 1; };
  const std::size_t hosts = c.hostCount();
  if (c.participants > hosts) {
    return ctx.fail("participants: " + std::to_string(c.participants) +
                    " exceeds the topology's " + std::to_string(hosts) +
                    " hosts",
                    at(ctx.lineParticipants));
  }
  const std::size_t p = c.participants == 0 ? hosts : c.participants;
  if (p < 2) {
    return ctx.fail("workload needs at least 2 participant hosts, have " +
                    std::to_string(p),
                    at(ctx.lineParticipants));
  }
  if (c.pattern == TrafficPattern::Incast && c.fanin > p - 1) {
    return ctx.fail("fanin: " + std::to_string(c.fanin) +
                    " exceeds the " + std::to_string(p - 1) +
                    " available senders (participants minus the receiver)",
                    at(ctx.lineFanin));
  }
  if (c.pattern == TrafficPattern::Shuffle && p * (p - 1) > c.maxFlows) {
    return ctx.fail("shuffle needs participants*(participants-1) = " +
                    std::to_string(p * (p - 1)) +
                    " flows, above max_flows = " + std::to_string(c.maxFlows),
                    at(ctx.lineMaxFlows));
  }
  return true;
}

}  // namespace

ParsedScenario parseScenario(std::string_view text) {
  ParsedScenario out;
  ParseCtx ctx;

  enum class Section {
    None, Scenario, Topology, Workload, Tpp, Monitor, Faults, Metrics
  };
  Section section = Section::None;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++ctx.line;

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        ctx.fail("unterminated section header");
        break;
      }
      const std::string_view name = line.substr(1, line.size() - 2);
      if (name == "scenario") section = Section::Scenario;
      else if (name == "topology") section = Section::Topology;
      else if (name == "workload") section = Section::Workload;
      else if (name == "tpp") section = Section::Tpp;
      else if (name == "monitor") section = Section::Monitor;
      else if (name == "faults") section = Section::Faults;
      else if (name == "metrics") section = Section::Metrics;
      else {
        ctx.fail("unknown section [" + std::string(name) + "]");
        break;
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      ctx.fail("expected 'key = value', got '" + std::string(line) + "'");
      break;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      ctx.fail("empty key");
      break;
    }

    bool ok = false;
    switch (section) {
      case Section::None:
        ok = ctx.fail("'" + std::string(key) +
                      "' before any [section] header");
        break;
      case Section::Scenario: ok = handleScenarioKey(ctx, key, value); break;
      case Section::Topology: ok = handleTopologyKey(ctx, key, value); break;
      case Section::Workload: ok = handleWorkloadKey(ctx, key, value); break;
      case Section::Tpp: ok = handleTppKey(ctx, key, value); break;
      case Section::Monitor: ok = handleMonitorKey(ctx, key, value); break;
      case Section::Faults: ok = handleFaultsKey(ctx, key, value); break;
      case Section::Metrics: ok = handleMetricsKey(ctx, key, value); break;
    }
    if (!ok) break;
  }

  if (ctx.error.empty()) validate(ctx);
  if (!ctx.error.empty()) {
    out.error = ctx.error;
    return out;
  }
  out.ok = true;
  out.config = std::move(ctx.c);
  return out;
}

ParsedScenario parseScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParsedScenario out;
    out.error = "cannot open '" + path + "'";
    return out;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parseScenario(ss.str());
}

namespace {

// Shortest round-trip decimal for a double (std::to_chars general form):
// serialize → parse reproduces the exact bits, which the round-trip
// property test leans on.
std::string fmtDouble(double v) {
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  assert(ec == std::errc{});
  return std::string(buf, p);
}

}  // namespace

std::string serializeScenario(const ScenarioConfig& c) {
  std::string s;
  s.reserve(1024);
  const auto kv = [&s](std::string_view key, const std::string& v) {
    s += key;
    s += " = ";
    s += v;
    s += '\n';
  };
  const auto kvU = [&](std::string_view key, std::uint64_t v) {
    kv(key, std::to_string(v));
  };
  const auto kvF = [&](std::string_view key, double v) {
    kv(key, fmtDouble(v));
  };

  s += "[scenario]\n";
  kv("name", c.name);
  kvU("seed", c.seed);
  kvF("horizon_ms", c.horizonMs);
  s += "\n[topology]\n";
  kv("type", std::string(topologyTypeName(c.topology)));
  kvU("k", c.k);
  kvU("nodes", c.nodes);
  kvF("link_gbps", c.linkGbps);
  kvF("link_delay_us", c.linkDelayUs);
  kvU("buffer_kb", c.bufferKb);
  kvU("ecn_threshold_kb", c.ecnThresholdKb);
  s += "\n[workload]\n";
  kv("pattern", std::string(trafficPatternName(c.pattern)));
  kv("size_dist", std::string(flowSizeDistName(c.sizeDist)));
  kvF("size_scale", c.sizeScale);
  kvU("fixed_kb", c.fixedKb);
  kvF("load", c.load);
  kvF("flows_per_sec", c.flowsPerSec);
  kvU("max_flows", c.maxFlows);
  kvU("participants", c.participants);
  kvU("mss", c.mss);
  kvU("fanin", c.fanin);
  kvF("period_us", c.periodUs);
  kvU("rounds", c.rounds);
  kvF("stagger_us", c.staggerUs);
  s += "\n[tpp]\n";
  kv("controller", c.tppController ? "on" : "off");
  kvU("queue_threshold_kb", c.queueThresholdKb);
  kvU("max_controllers", c.maxControllers);
  s += "\n[monitor]\n";
  kv("sketch", c.monitorSketch ? "on" : "off");
  kvU("rows", c.sketchRows);
  kvU("width", c.sketchWidth);
  kvU("stride", c.sketchStride);
  kvU("hh_threshold", c.hhThresholdPkts);
  s += "\n[faults]\n";
  kvF("drop_rate", c.dropRate);
  kvF("corrupt_rate", c.corruptRate);
  s += "\n[metrics]\n";
  kvF("queue_sample_us", c.queueSampleUs);
  return s;
}

// --------------------------------------------------------------- schedule

std::vector<FlowPlan> compileSchedule(const ScenarioConfig& c) {
  std::vector<FlowPlan> plans;
  const std::vector<std::size_t> hosts = c.participantHosts();
  if (hosts.size() < 2) return plans;

  // One named substream for the whole workload; per-flow draw order is
  // fixed (arrival-gap/jitter, endpoints, size) so a config edit that only
  // changes the pattern still replays identical sizes per position.
  sim::Rng rng = sim::Rng(c.seed).fork("scenario.workload");
  const FlowSizeSampler sampler(c.sizeDist, c.sizeScale, c.fixedKb * 1024);
  const sim::Time horizon = sim::Time::seconds(c.horizonMs * 1e-3);

  switch (c.pattern) {
    case TrafficPattern::Poisson: {
      // Offered load = load x aggregate participant edge capacity, unless
      // an explicit arrival rate overrides it.
      double rate = c.flowsPerSec;
      if (rate <= 0) {
        rate = c.load * static_cast<double>(hosts.size()) * c.linkGbps * 1e9 /
               (8.0 * sampler.meanBytes());
      }
      sim::Time t = sim::Time::zero();
      while (plans.size() < c.maxFlows) {
        t += sim::Time::seconds(rng.exponential(1.0 / rate));
        if (t >= horizon) break;
        const auto src = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(hosts.size()) - 1));
        auto dst = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(hosts.size()) - 2));
        if (dst >= src) ++dst;
        plans.push_back({t, hosts[src], hosts[dst], sampler.draw(rng)});
      }
      break;
    }
    case TrafficPattern::Incast: {
      // Participant 0 is the storm's victim; senders rotate through the
      // rest so sustained storms exercise many edge uplinks.
      const std::size_t receiver = hosts[0];
      const std::size_t senders = hosts.size() - 1;
      for (std::size_t round = 0; round < c.rounds; ++round) {
        const sim::Time base =
            sim::Time::seconds(static_cast<double>(round) * c.periodUs * 1e-6);
        for (std::size_t i = 0; i < c.fanin; ++i) {
          if (plans.size() >= c.maxFlows) return plans;
          const double jitterUs = rng.uniform(0.0, c.staggerUs);
          const std::size_t s = 1 + (round * c.fanin + i) % senders;
          plans.push_back({base + sim::Time::seconds(jitterUs * 1e-6),
                           hosts[s], receiver, sampler.draw(rng)});
        }
      }
      break;
    }
    case TrafficPattern::Shuffle: {
      // All ordered pairs; each source's flows start at src_index x
      // stagger (the classic staggered all-to-all).
      for (std::size_t s = 0; s < hosts.size(); ++s) {
        const sim::Time at =
            sim::Time::seconds(static_cast<double>(s) * c.staggerUs * 1e-6);
        for (std::size_t d = 0; d < hosts.size(); ++d) {
          if (d == s) continue;
          if (plans.size() >= c.maxFlows) return plans;
          plans.push_back({at, hosts[s], hosts[d], sampler.draw(rng)});
        }
      }
      break;
    }
  }
  return plans;
}

// ------------------------------------------------------------------- run

namespace {

// Periodic per-switch queue-occupancy sampler. Samples are (sample index,
// total queued bytes across ports), nonzero only.
struct SwitchSampler {
  asic::Switch* sw = nullptr;
  sim::Simulator* sim = nullptr;
  sim::Time period;
  sim::Time until;
  std::size_t ports = 0;
  std::uint64_t idx = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples;

  void tick() {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < ports; ++p) {
      total += sw->portStats(p).queuedBytesNow;
    }
    if (total != 0) samples.emplace_back(idx, total);
    ++idx;
    const sim::Time next = sim->now() + period;
    if (next <= until) sim->scheduleAt(next, [this] { tick(); });
  }
};

double percentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest-rank: deterministic, no interpolation surprises.
  const auto n = static_cast<double>(sorted.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n));
  idx = idx == 0 ? 0 : idx - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

ScenarioResult::FctStats fctStatsOf(std::vector<double> us) {
  ScenarioResult::FctStats st;
  st.n = us.size();
  if (us.empty()) return st;
  std::sort(us.begin(), us.end());
  double sum = 0;
  for (double v : us) sum += v;
  st.meanUs = sum / static_cast<double>(us.size());
  st.maxUs = us.back();
  st.p50Us = percentileSorted(us, 0.50);
  st.p95Us = percentileSorted(us, 0.95);
  st.p99Us = percentileSorted(us, 0.99);
  return st;
}

void appendFct(std::string& s, const char* label,
               const ScenarioResult::FctStats& st) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%s n=%zu p50=%.3fus p95=%.3fus p99=%.3fus mean=%.3fus "
                "max=%.3fus\n",
                label, st.n, st.p50Us, st.p95Us, st.p99Us, st.meanUs,
                st.maxUs);
  s += buf;
}

}  // namespace

std::string ScenarioResult::summaryText(const ScenarioConfig& c) const {
  // Everything here is a physical observable or drawn schedule. Run
  // metadata (events executed) deliberately stays out.
  std::string s;
  s.reserve(1024);
  char buf[256];
  std::snprintf(buf, sizeof buf, "scenario %s seed=%llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.seed));
  s += buf;
  std::snprintf(buf, sizeof buf,
                "topology %s: %zu switches, %zu hosts, %zu links\n",
                std::string(topologyTypeName(c.topology)).c_str(), switches,
                hosts, links);
  s += buf;
  std::snprintf(buf, sizeof buf,
                "workload %s/%s: %zu flows, %llu bytes offered\n",
                std::string(trafficPatternName(c.pattern)).c_str(),
                std::string(flowSizeDistName(c.sizeDist)).c_str(), flows,
                static_cast<unsigned long long>(bytesOffered));
  s += buf;
  std::snprintf(buf, sizeof buf, "flows: %zu finished, %zu failed\n",
                finished, failed);
  s += buf;
  appendFct(s, "fct_all", fct);
  appendFct(s, "fct_small", fctSmall);
  appendFct(s, "fct_large", fctLarge);
  std::snprintf(buf, sizeof buf,
                "queue nonzero_samples=%llu p50=%lluB p99=%lluB max=%lluB\n",
                static_cast<unsigned long long>(queueSamples),
                static_cast<unsigned long long>(queueP50Bytes),
                static_cast<unsigned long long>(queueP99Bytes),
                static_cast<unsigned long long>(queueMaxBytes));
  s += buf;
  std::snprintf(buf, sizeof buf, "tpp probes=%llu cwnd_cuts=%llu\n",
                static_cast<unsigned long long>(tppProbesSent),
                static_cast<unsigned long long>(tppCwndCuts));
  s += buf;
  std::snprintf(buf, sizeof buf, "faults drops=%llu corruptions=%llu\n",
                static_cast<unsigned long long>(faultDrops),
                static_cast<unsigned long long>(faultCorruptions));
  s += buf;
  if (c.monitorSketch) {
    const double recall =
        hhTrue == 0 ? 100.0
                    : 100.0 * static_cast<double>(hhTrue - hhMissed) /
                          static_cast<double>(hhTrue);
    std::snprintf(buf, sizeof buf,
                  "monitor sketch rows=%zu width=%zu stride=%lu checks=%llu "
                  "underest=%llu eps_violations=%llu allowed=%llu bound=%s\n",
                  c.sketchRows, c.sketchWidth,
                  static_cast<unsigned long>(c.sketchStride),
                  static_cast<unsigned long long>(monitorChecks),
                  static_cast<unsigned long long>(monitorUnderestimates),
                  static_cast<unsigned long long>(monitorEpsViolations),
                  static_cast<unsigned long long>(monitorViolationsAllowed),
                  monitorBoundOk ? "ok" : "VIOLATED");
    s += buf;
    std::snprintf(buf, sizeof buf,
                  "monitor hh threshold=%llu true=%llu reported=%llu "
                  "recall=%.1f%% hooks=%llu\n",
                  static_cast<unsigned long long>(c.hhThresholdPkts),
                  static_cast<unsigned long long>(hhTrue),
                  static_cast<unsigned long long>(hhReported), recall,
                  static_cast<unsigned long long>(hookExecutions));
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "digest flow=%016llx queue=%016llx\n",
                static_cast<unsigned long long>(flowDigest),
                static_cast<unsigned long long>(queueDigest));
  s += buf;
  return s;
}

ScenarioRun runScenario(const ScenarioConfig& c, const RunOptions& options) {
  ScenarioRun run;
  ScenarioResult& res = run.result;

  host::Testbed tb;

  asic::SwitchConfig swCfg;
  swCfg.bufferPerQueueBytes = c.bufferKb * 1024;
  if (c.ecnThresholdKb != 0) swCfg.ecnThresholdBytes = c.ecnThresholdKb * 1024;
  swCfg.hookStride = c.sketchStride;
  host::LinkParams lp;
  lp.rateBps = static_cast<std::uint64_t>(c.linkGbps * 1e9);
  lp.delay = sim::Time::seconds(c.linkDelayUs * 1e-6);

  std::size_t switchPorts = 0;
  switch (c.topology) {
    case TopologyType::FatTree:
      host::buildFatTree(tb, c.k, lp, swCfg);
      switchPorts = c.k;
      break;
    case TopologyType::Chain:
      host::buildChain(tb, c.nodes, lp, swCfg);
      switchPorts = std::max<std::size_t>(swCfg.ports, 2);
      break;
    case TopologyType::Star:
      host::buildStar(tb, c.nodes, lp, swCfg);
      switchPorts = std::max<std::size_t>(swCfg.ports, c.nodes + 1);
      break;
    case TopologyType::Dumbbell:
      host::buildDumbbell(tb, c.nodes, lp, lp, swCfg);
      switchPorts = std::max<std::size_t>(swCfg.ports, c.nodes + 1);
      break;
  }
  res.switches = tb.switchCount();
  res.hosts = tb.hostCount();
  res.links = tb.linkCount();

  // ---------------------------------------------------------- fault layer
  // Substreams are named by link index + direction, so decisions depend
  // only on (seed, link) and the physical transmit order.
  sim::FaultInjector faults(tb.sim(), c.seed);
  if (c.dropRate > 0 || c.corruptRate > 0) {
    const sim::LinkFaultPlan fp{c.dropRate, c.corruptRate};
    for (std::size_t i = 0; i < tb.linkCount(); ++i) {
      auto& ab = faults.link("link" + std::to_string(i) + ":ab", fp);
      auto& ba = faults.link("link" + std::to_string(i) + ":ba", fp);
      tb.linkAt(i).aToB().setFaultState(&ab);
      tb.linkAt(i).bToA().setFaultState(&ba);
    }
  }

  // ------------------------------------------------------ sketch monitor
  // Per switch: an SRAM grant for the sketch task (switching the allocator
  // to enforcing mode — the hook runs under exactly the isolation carried
  // TPPs get), the resident update hook, and the exact ground-truth
  // counter on the same enqueue path.
  const monitor::SketchConfig sketchCfg{
      .taskId = apps::kTaskSketch,
      .rows = static_cast<std::uint32_t>(c.sketchRows),
      .width = static_cast<std::uint32_t>(c.sketchWidth)};
  const monitor::CountMinSketch sketch(sketchCfg);
  std::vector<std::unique_ptr<monitor::GroundTruthCounter>> truth;
  std::vector<std::uint16_t> sketchBases;
  if (c.monitorSketch) {
    for (std::size_t s = 0; s < tb.switchCount(); ++s) {
      asic::Switch& sw = tb.sw(s);
      std::string whyNot;
      const auto grant = sw.sramAllocator().allocate(
          sketchCfg.taskId, sketch.words(), core::StatNamespace::Sram,
          &whyNot);
      assert(grant && "sketch grant must fit the scratch SRAM");
      const std::uint16_t base = grant->baseAddress();
      sw.scratchWrite(
          static_cast<std::uint16_t>(base + monitor::CountMinSketch::kThresholdWord),
          static_cast<std::uint32_t>(c.hhThresholdPkts));
      sw.installHook(sketch.updateHook(base));
      auto gt = std::make_unique<monitor::GroundTruthCounter>();
      sw.setEgressInterceptor(gt.get());
      truth.push_back(std::move(gt));
      sketchBases.push_back(base);
    }
  }

  // ------------------------------------------------------ flight recorder
  std::unique_ptr<sim::Tracer> trace;
  if (options.captureTrace) {
    trace = std::make_unique<sim::Tracer>(options.traceRing);
    host::armTracing(tb, *trace);
  }

  // ------------------------------------------------------------- workload
  const std::vector<FlowPlan> plans = compileSchedule(c);

  host::TcpConnection::Config connCfg;
  connCfg.mss = c.mss;

  std::vector<char> isDst(tb.hostCount(), 0);
  for (const FlowPlan& p : plans) isDst[p.dst] = 1;
  std::vector<std::unique_ptr<host::TcpListener>> listeners;
  for (std::size_t h = 0; h < tb.hostCount(); ++h) {
    if (isDst[h] != 0) {
      listeners.push_back(std::make_unique<host::TcpListener>(
          tb.host(h), kServerPort, connCfg));
    }
  }

  struct FlowState {
    TcpFlowRecord rec;
    std::unique_ptr<host::TcpConnection> conn;
    std::unique_ptr<apps::TppTcpController> ctrl;
  };
  std::vector<FlowState> flows(plans.size());

  apps::TppTcpController::Config ctrlCfg;
  ctrlCfg.queueThresholdBytes =
      static_cast<std::uint32_t>(c.queueThresholdKb * 1024);

  for (std::size_t f = 0; f < plans.size(); ++f) {
    const FlowPlan& p = plans[f];
    FlowState& st = flows[f];
    st.rec.arrival = p.arrival;
    st.rec.bytes = p.bytes;
    st.rec.sender = p.src;
    res.bytesOffered += p.bytes;

    host::Host& sender = tb.host(p.src);
    host::Host& receiver = tb.host(p.dst);
    st.conn = std::make_unique<host::TcpConnection>(sender, connCfg);
    host::TcpConnection* raw = st.conn.get();
    TcpFlowRecord* rec = &st.rec;
    raw->onClosed([rec, raw] {
      rec->completion = raw->closedAt().value_or(sim::Time::zero());
    });
    raw->onError([rec](const std::string&) { rec->failed = true; });

    if (c.tppController && f < c.maxControllers) {
      st.ctrl =
          std::make_unique<apps::TppTcpController>(sender, *raw, ctrlCfg);
    }
    apps::TppTcpController* ctrl = st.ctrl.get();

    const auto port = static_cast<std::uint16_t>(kBasePort + f);
    const net::MacAddress dstMac = receiver.mac();
    const net::Ipv4Address dstIp = receiver.ip();
    const std::uint64_t bytes = p.bytes;
    const sim::Time arrival = p.arrival;
    // The controller starts in the same event, after connect, so its first
    // probe sees an open connection.
    sender.simulator().scheduleAt(
        arrival, [raw, ctrl, dstMac, dstIp, port, bytes, arrival] {
          raw->connect(dstMac, dstIp, kServerPort, port, bytes);
          if (ctrl != nullptr) ctrl->start(arrival);
        });
  }

  // ------------------------------------------------------- queue sampling
  const sim::Time samplePeriod = sim::Time::seconds(c.queueSampleUs * 1e-6);
  const sim::Time sampleUntil = sim::Time::seconds(c.horizonMs * 1e-3);
  std::vector<std::unique_ptr<SwitchSampler>> samplers;
  samplers.reserve(tb.switchCount());
  for (std::size_t s = 0; s < tb.switchCount(); ++s) {
    auto sampler = std::make_unique<SwitchSampler>();
    sampler->sw = &tb.sw(s);
    sampler->sim = &tb.sim();
    sampler->period = samplePeriod;
    sampler->until = sampleUntil;
    sampler->ports = switchPorts;
    SwitchSampler* rawSampler = sampler.get();
    rawSampler->sim->scheduleAt(samplePeriod, [rawSampler] {
      rawSampler->tick();
    });
    samplers.push_back(std::move(sampler));
  }

  // ------------------------------------------------------------------ run
  // Chunked: extend the deadline until every flow is done (the TCP give-up
  // path bounds stragglers) or the hard ceiling hits. Chunking a DES run
  // does not change event order, so this stays deterministic.
  const sim::Time horizon = sim::Time::seconds(c.horizonMs * 1e-3);
  const sim::Time ceiling = sim::Time::sec(30);
  const auto allDone = [&flows] {
    for (const FlowState& st : flows) {
      if (!st.rec.done()) return false;
    }
    return true;
  };
  sim::Time deadline = horizon;
  res.eventsExecuted += tb.run(deadline);
  while (!allDone() && deadline < ceiling) {
    deadline = deadline + horizon;
    res.eventsExecuted += tb.run(deadline);
  }

  // ------------------------------------------------------------ aggregate
  res.flows = flows.size();
  std::vector<double> fctAll, fctSmall, fctLarge;
  const double smallCut = 100.0 * 1024 * c.sizeScale;
  const double largeCut = 1024.0 * 1024 * c.sizeScale;
  Fnv64 flowDigest;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const TcpFlowRecord& r = flows[f].rec;
    if (r.failed) ++res.failed;
    flowDigest.mix(f);
    flowDigest.mix(r.sender);
    flowDigest.mix(plans[f].dst);
    flowDigest.mix(r.bytes);
    flowDigest.mix(static_cast<std::uint64_t>(r.arrival.nanos()));
    flowDigest.mix(static_cast<std::uint64_t>(r.completion.nanos()));
    flowDigest.mix(r.failed ? 1 : 0);
    if (!r.finished()) continue;
    ++res.finished;
    const double us = r.fct().toSeconds() * 1e6;
    fctAll.push_back(us);
    const auto bytes = static_cast<double>(r.bytes);
    if (bytes <= smallCut) fctSmall.push_back(us);
    if (bytes >= largeCut) fctLarge.push_back(us);
  }
  res.flowDigest = flowDigest.h;
  res.fct = fctStatsOf(std::move(fctAll));
  res.fctSmall = fctStatsOf(std::move(fctSmall));
  res.fctLarge = fctStatsOf(std::move(fctLarge));

  Fnv64 queueDigest;
  std::vector<double> queueBytes;
  for (std::size_t s = 0; s < samplers.size(); ++s) {
    for (const auto& [idx, bytes] : samplers[s]->samples) {
      queueDigest.mix(s);
      queueDigest.mix(idx);
      queueDigest.mix(bytes);
      queueBytes.push_back(static_cast<double>(bytes));
      res.queueMaxBytes = std::max(res.queueMaxBytes, bytes);
    }
  }
  res.queueDigest = queueDigest.h;
  res.queueSamples = queueBytes.size();
  std::sort(queueBytes.begin(), queueBytes.end());
  res.queueP50Bytes =
      static_cast<std::uint64_t>(percentileSorted(queueBytes, 0.50));
  res.queueP99Bytes =
      static_cast<std::uint64_t>(percentileSorted(queueBytes, 0.99));

  for (const FlowState& st : flows) {
    if (st.ctrl) {
      res.tppProbesSent += st.ctrl->probesSent();
      res.tppCwndCuts += st.ctrl->probeCuts();
    }
  }
  res.faultDrops = faults.totalDrops();
  res.faultCorruptions = faults.totalCorrupted();

  // ------------------------------------------------- sketch accuracy audit
  // Every (switch, flow) pair: read the sketch estimate out of scratch SRAM
  // and compare against that switch's exact count. Flow hashes are visited
  // in sorted order so the audit (and the summary derived from it) is
  // deterministic across runs.
  if (c.monitorSketch) {
    const std::uint32_t stride = std::max<std::uint32_t>(1, c.sketchStride);
    for (std::size_t s = 0; s < tb.switchCount(); ++s) {
      asic::Switch& sw = tb.sw(s);
      const std::uint16_t base = sketchBases[s];
      const double epsN = sketch.epsilon() *
                          static_cast<double>(truth[s]->eligiblePackets());
      std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
      counts.reserve(truth[s]->flows().size());
      for (const auto& [hash, fc] : truth[s]->flows()) {
        counts.emplace_back(hash, fc.packets);
      }
      std::sort(counts.begin(), counts.end());
      const auto readWord = [&sw](std::uint16_t address) {
        return sw.scratchRead(address);
      };
      for (const auto& [hash, pkts] : counts) {
        const auto est = sketch.estimate(readWord, base, hash, stride);
        if (!est) continue;
        ++res.monitorChecks;
        if (*est < pkts) ++res.monitorUnderestimates;
        if (static_cast<double>(*est) >
            static_cast<double>(pkts) + epsN) {
          ++res.monitorEpsViolations;
        }
        const bool trueHh = pkts >= 2 * c.hhThresholdPkts;
        if (trueHh) {
          ++res.hhTrue;
          if (*est < c.hhThresholdPkts) ++res.hhMissed;
        }
        if (*est >= c.hhThresholdPkts) ++res.hhReported;
      }
      res.hookExecutions += sw.hookExecutions();
    }
    // The analytic tail at delta, with 3x slack for the finite sample and
    // the non-independence of per-flow checks within one sketch.
    res.monitorViolationsAllowed = static_cast<std::uint64_t>(std::max(
        1.0,
        std::ceil(3.0 * sketch.delta() *
                  static_cast<double>(res.monitorChecks))));
    res.monitorBoundOk =
        res.monitorEpsViolations <= res.monitorViolationsAllowed &&
        (stride > 1 || res.monitorUnderestimates == 0);
  }

  if (trace) run.trace = trace->serialize();
  return run;
}

}  // namespace tpp::workload
