// The discrete-event simulator: a clock plus an event queue.
//
// Components hold a Simulator& and schedule callbacks; the main loop pops
// events in deterministic order and advances the clock. A Simulator is not
// thread-safe: it is confined to one thread at a time (determinism is a
// feature we test for). Every experiment owns exactly one (host::Testbed
// holds it).
#pragma once

#include <cstdint>
#include <limits>

#include "src/sim/event_queue.hpp"
#include "src/sim/time.hpp"
#include "src/sim/trace.hpp"

namespace tpp::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run `delay` after now. Negative delays clamp to now.
  EventHandle schedule(Time delay, EventFn fn);
  // Schedules `fn` at an absolute instant (clamped to now if in the past).
  EventHandle scheduleAt(Time at, EventFn fn);

  // Runs until the queue drains, `until` is reached, or stop() is called.
  // Returns the number of events executed.
  std::uint64_t run(Time until = Time::max());

  // Runs at most `maxEvents` events (for step-debugging in tests).
  std::uint64_t runEvents(std::uint64_t maxEvents);

  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  std::uint64_t eventsExecuted() const { return executed_; }

  // Arms the flight recorder on the scheduler itself (EventSchedule /
  // EventFire records). nullptr disarms; the disarmed cost is one branch
  // per schedule and per fire.
  void setTracer(Tracer* tracer) {
    tracer_ = tracer;
    simActor_ = tracer != nullptr ? tracer->actor("sim") : 0;
  }
  Tracer* tracer() const { return tracer_; }

 private:
  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  Tracer* tracer_ = nullptr;
  std::uint32_t simActor_ = 0;
};

}  // namespace tpp::sim
