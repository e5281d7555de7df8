// Unit tests for the discrete-event kernel: delta-cycle signal semantics,
// wait disciplines, process completion/restart, bus locks, tracing.
#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace ifsyn::sim {
namespace {

FieldKey key(const std::string& sig, const std::string& field = "") {
  return FieldKey{sig, field};
}

TEST(KernelTest, EmptyRunQuiesces) {
  Kernel kernel;
  SimResult result = kernel.run();
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.end_time, 0u);
  EXPECT_TRUE(result.processes.empty());
}

TEST(KernelTest, ProcessRunsToCompletion) {
  Kernel kernel;
  int steps = 0;
  kernel.add_process("p", [&]() -> SimTask {
    ++steps;
    co_return;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(steps, 1);
  const ProcessStats* stats = result.find("p");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->finish_time, 0u);
}

TEST(KernelTest, WaitForAdvancesTime) {
  Kernel kernel;
  std::uint64_t seen = 0;
  kernel.add_process("p", [&]() -> SimTask {
    { auto aw = kernel.wait_for(7); co_await aw; }
    seen = kernel.now();
    { auto aw = kernel.wait_for(5); co_await aw; }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(result.end_time, 12u);
  EXPECT_EQ(result.find("p")->finish_time, 12u);
}

TEST(KernelTest, WaitForZeroDoesNotSuspend) {
  Kernel kernel;
  bool done = false;
  kernel.add_process("p", [&]() -> SimTask {
    { auto aw = kernel.wait_for(0); co_await aw; }
    done = true;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(result.end_time, 0u);
}

TEST(KernelTest, SignalAssignmentCommitsAtDeltaBoundary) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  BitVector seen_before, seen_after;
  kernel.add_process("writer", [&]() -> SimTask {
    kernel.schedule_signal(key("S"), BitVector::from_uint(8, 42));
    seen_before = kernel.signal_value(key("S"));  // still old value
    { auto aw = kernel.wait_for(1); co_await aw; }
    seen_after = kernel.signal_value(key("S"));
    co_return;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(seen_before.to_uint(), 0u);
  EXPECT_EQ(seen_after.to_uint(), 42u);
}

TEST(KernelTest, LastWriteInDeltaWins) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  kernel.add_process("writer", [&]() -> SimTask {
    kernel.schedule_signal(key("S"), BitVector::from_uint(8, 1));
    kernel.schedule_signal(key("S"), BitVector::from_uint(8, 2));
    co_return;
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(kernel.signal_value(key("S")).to_uint(), 2u);
}

TEST(KernelTest, WaitOnWakesOnEvent) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 0));
  std::uint64_t woke_at = 999;
  kernel.add_process("waiter", [&]() -> SimTask {
    // NOTE: every co_await in these tests awaits a named local, never a
    // prvalue: GCC 12 both rejects braced-init-lists inside co_await
    // operands ("array used as initializer") and miscompiles non-trivial
    // temporaries there (double destruction).
    std::vector<FieldKey> sensitivity{key("S")};
    auto aw = kernel.wait_on(std::move(sensitivity));
    co_await aw;
    woke_at = kernel.now();
  });
  kernel.add_process("driver", [&]() -> SimTask {
    { auto aw = kernel.wait_for(4); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(1, 1));
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(woke_at, 4u);
}

TEST(KernelTest, WaitOnIgnoresValuelessCommit) {
  // Re-writing the same value is not an event.
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 0));
  bool woke = false;
  kernel.add_process("waiter", [&]() -> SimTask {
    { std::vector<FieldKey> sens{key("S")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
    woke = true;
  });
  kernel.add_process("driver", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(1, 0));  // no-op
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_FALSE(woke);
  EXPECT_FALSE(result.find("waiter")->completed);
}

TEST(KernelTest, WaitOnEmptyFieldMatchesAnyFieldOfSignal) {
  Kernel kernel;
  kernel.add_signal_field(key("B", "START"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("B", "DATA"), BitVector::from_uint(8, 0));
  bool woke = false;
  kernel.add_process("waiter", [&]() -> SimTask {
    { std::vector<FieldKey> sens{key("B", "")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
    woke = true;
  });
  kernel.add_process("driver", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("B", "DATA"), BitVector::from_uint(8, 5));
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_TRUE(woke);
}

TEST(KernelTest, WaitUntilIsLevelSensitive) {
  // Condition already true -> no suspension (documented deviation from
  // strict VHDL, required for robust generated handshakes).
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 1));
  bool done = false;
  kernel.add_process("p", [&]() -> SimTask {
    auto aw = kernel.wait_until([&]() {
      return kernel.signal_value(key("S")).to_uint() == 1;
    });
    co_await aw;
    done = true;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(result.end_time, 0u);
}

TEST(KernelTest, WaitUntilWakesWhenConditionBecomesTrue) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  std::uint64_t woke_at = 0;
  kernel.add_process("waiter", [&]() -> SimTask {
    auto aw = kernel.wait_until([&]() {
      return kernel.signal_value(key("S")).to_uint() >= 3;
    });
    co_await aw;
    woke_at = kernel.now();
  });
  kernel.add_process("driver", [&]() -> SimTask {
    for (std::uint64_t v = 1; v <= 5; ++v) {
      { auto aw = kernel.wait_for(10); co_await aw; }
      kernel.schedule_signal(key("S"), BitVector::from_uint(8, v));
    }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(woke_at, 30u);  // S reaches 3 at t=30
}

TEST(KernelTest, TwoProcessHandshake) {
  // Minimal four-phase handshake straight against the kernel API.
  Kernel kernel;
  kernel.add_signal_field(key("START"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("DONE"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("DATA"), BitVector::from_uint(8, 0));
  std::vector<std::uint64_t> received;

  auto hi = [&](const char* sig) {
    return kernel.signal_value(key(sig)).to_uint() == 1;
  };

  kernel.add_process("sender", [&]() -> SimTask {
    for (std::uint64_t word = 10; word < 13; ++word) {
      kernel.schedule_signal(key("DATA"), BitVector::from_uint(8, word));
      kernel.schedule_signal(key("START"), BitVector::from_uint(1, 1));
      { auto aw = kernel.wait_for(1); co_await aw; }
      { auto aw = kernel.wait_until([&]() { return hi("DONE"); }); co_await aw; }
      kernel.schedule_signal(key("START"), BitVector::from_uint(1, 0));
      { auto aw = kernel.wait_for(1); co_await aw; }
      { auto aw = kernel.wait_until([&]() { return !hi("DONE"); }); co_await aw; }
    }
  });
  kernel.add_process("receiver", [&]() -> SimTask {
    for (int word = 0; word < 3; ++word) {
      { auto aw = kernel.wait_until([&]() { return hi("START"); }); co_await aw; }
      received.push_back(kernel.signal_value(key("DATA")).to_uint());
      kernel.schedule_signal(key("DONE"), BitVector::from_uint(1, 1));
      { auto aw = kernel.wait_until([&]() { return !hi("START"); }); co_await aw; }
      kernel.schedule_signal(key("DONE"), BitVector::from_uint(1, 0));
    }
  });

  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_TRUE(result.find("sender")->completed);
  EXPECT_TRUE(result.find("receiver")->completed);
  EXPECT_EQ(received, (std::vector<std::uint64_t>{10, 11, 12}));
  // 2 cycles per word minimum (Eq. 2).
  EXPECT_EQ(result.end_time, 6u);
}

TEST(KernelTest, RestartingProcessReactivates) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  int activations = 0;
  kernel.add_process(
      "server",
      [&]() -> SimTask {
        { std::vector<FieldKey> sens{key("S")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
        ++activations;
      },
      /*restarts=*/true);
  kernel.add_process("driver", [&]() -> SimTask {
    for (std::uint64_t v = 1; v <= 3; ++v) {
      { auto aw = kernel.wait_for(2); co_await aw; }
      kernel.schedule_signal(key("S"), BitVector::from_uint(8, v));
    }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(activations, 3);
  EXPECT_GE(result.find("server")->activations, 3u);
}

TEST(KernelTest, BusLockSerializesAndAccountsWaiting) {
  Kernel kernel;
  kernel.add_bus_lock("B");
  std::vector<std::string> order;
  // Parameters by value: a coroutine outlives its invocation, so
  // reference parameters to temporaries would dangle across suspension.
  auto worker = [&](std::string name, std::uint64_t start) -> SimTask {
    { auto aw = kernel.wait_for(start); co_await aw; }
    { auto aw = kernel.acquire_bus("B"); co_await aw; }
    order.push_back(name + ":in@" + std::to_string(kernel.now()));
    { auto aw = kernel.wait_for(10); co_await aw; }
    order.push_back(name + ":out@" + std::to_string(kernel.now()));
    kernel.release_bus("B");
  };
  kernel.add_process("a", [&]() { return worker("a", 0); });
  kernel.add_process("b", [&]() { return worker("b", 1); });

  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a:in@0");
  EXPECT_EQ(order[1], "a:out@10");
  EXPECT_EQ(order[2], "b:in@10");
  EXPECT_EQ(order[3], "b:out@20");
  EXPECT_EQ(result.find("b")->bus_wait_cycles, 9u);
  EXPECT_EQ(result.find("a")->bus_wait_cycles, 0u);
}

TEST(KernelTest, BusHistogramsFlushOnceAtEndOfRun) {
  // Bus hold/wait durations are tallied in plain per-run integers and
  // reach the registry only when run() ends: a process reading the
  // registry mid-run sees nothing of the current run.
  obs::MetricsRegistry metrics;
  Kernel kernel;
  kernel.set_obs(obs::ObsContext{&metrics, nullptr});
  kernel.add_bus_lock("B");
  const std::vector<std::uint64_t> bounds = obs::exponential_bounds(1 << 16);
  obs::Histogram& hold = metrics.histogram("sim.bus_hold_cycles", bounds);
  obs::Histogram& wait = metrics.histogram("sim.bus_wait_cycles", bounds);
  auto worker = [&](std::uint64_t start) -> SimTask {
    for (int i = 0; i < 4; ++i) {
      { auto aw = kernel.wait_for(start); co_await aw; }
      { auto aw = kernel.acquire_bus("B"); co_await aw; }
      { auto aw = kernel.wait_for(10); co_await aw; }
      kernel.release_bus("B");
    }
  };
  kernel.add_process("a", [&]() { return worker(1); });
  kernel.add_process("b", [&]() { return worker(2); });
  std::uint64_t mid_hold = ~std::uint64_t{0};
  std::uint64_t mid_wait = ~std::uint64_t{0};
  kernel.add_process("probe", [&]() -> SimTask {
    { auto aw = kernel.wait_for(40); co_await aw; }
    mid_hold = hold.count();
    mid_wait = wait.count();
  });

  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  ASSERT_GT(result.end_time, 40u) << "probe must read mid-run";
  const BusStats* bus = result.find_bus("B");
  ASSERT_NE(bus, nullptr);
  EXPECT_EQ(bus->acquisitions, 8u);
  EXPECT_GT(bus->contended_acquisitions, 0u);
  EXPECT_EQ(mid_hold, 0u) << "bus hold observed before end of run";
  EXPECT_EQ(mid_wait, 0u) << "bus wait observed before end of run";
  EXPECT_EQ(hold.count(), bus->acquisitions);
  EXPECT_EQ(hold.sum(), bus->hold_cycles);
  EXPECT_EQ(hold.bucket_counts()[obs::bucket_index(bounds, 10)], 8u);
  EXPECT_EQ(wait.count(), bus->contended_acquisitions);
  EXPECT_EQ(wait.sum(), bus->wait_cycles);

  // A second run on the same kernel tallies afresh and adds exactly the
  // same amounts again.
  const std::uint64_t hold_one = hold.count();
  const std::uint64_t wait_one = wait.count();
  const std::uint64_t hold_sum_one = hold.sum();
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(mid_hold, hold_one) << "second run leaked into the registry";
  EXPECT_EQ(mid_wait, wait_one);
  EXPECT_EQ(hold.count(), 2 * hold_one);
  EXPECT_EQ(wait.count(), 2 * wait_one);
  EXPECT_EQ(hold.sum(), 2 * hold_sum_one);
}

TEST(KernelTest, RunEndHooksRunOncePerRunAfterTheLastProcess) {
  Kernel kernel;
  std::vector<std::string> events;
  kernel.add_process("p", [&]() -> SimTask {
    { auto aw = kernel.wait_for(3); co_await aw; }
    events.push_back("p@" + std::to_string(kernel.now()));
  });
  kernel.add_run_end_hook(
      [&] { events.push_back("end@" + std::to_string(kernel.now())); });
  ASSERT_TRUE(kernel.run().status.is_ok());
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(events, (std::vector<std::string>{"p@3", "end@3", "p@3",
                                              "end@3"}));
}

TEST(KernelTest, BusLockFifoOrder) {
  Kernel kernel;
  kernel.add_bus_lock("B");
  std::vector<std::string> grants;
  auto worker = [&](std::string name, std::uint64_t start) -> SimTask {
    { auto aw = kernel.wait_for(start); co_await aw; }
    { auto aw = kernel.acquire_bus("B"); co_await aw; }
    grants.push_back(name);
    { auto aw = kernel.wait_for(5); co_await aw; }
    kernel.release_bus("B");
  };
  kernel.add_process("p1", [&]() { return worker("p1", 0); });
  kernel.add_process("p2", [&]() { return worker("p2", 1); });
  kernel.add_process("p3", [&]() { return worker("p3", 2); });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(grants, (std::vector<std::string>{"p1", "p2", "p3"}));
}

TEST(KernelTest, MaxTimeAborts) {
  Kernel kernel;
  kernel.add_process("p", [&]() -> SimTask {
    for (;;) { auto aw = kernel.wait_for(100); co_await aw; }
  });
  SimResult result = kernel.run(/*max_time=*/1000);
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
}

TEST(KernelTest, ProcessExceptionSurfacesAsSimulationError) {
  Kernel kernel;
  kernel.add_process("p", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    IFSYN_ASSERT_MSG(false, "deliberate failure");
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("deliberate failure"),
            std::string::npos);
}

TEST(KernelTest, ZeroDelayOscillationIsDetected) {
  // Two processes toggling each other's condition without consuming time:
  // the delta-cycle limit must abort the run instead of hanging.
  Kernel kernel;
  kernel.add_signal_field(key("A"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("B"), BitVector::from_uint(1, 0));
  kernel.add_process("ping", [&]() -> SimTask {
    for (;;) {
      kernel.schedule_signal(
          key("A"), ~kernel.signal_value(key("A")));
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("B")});
      co_await aw;
    }
  });
  kernel.add_process("pong", [&]() -> SimTask {
    for (;;) {
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("A")});
      co_await aw;
      kernel.schedule_signal(
          key("B"), ~kernel.signal_value(key("B")));
    }
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("delta"), std::string::npos)
      << result.status;
}

TEST(KernelTest, DeltaOverflowErrorNamesTheOffendingInstant) {
  // The oscillation only starts after 42 time units; the abort message
  // must point at t=42, not at the start of the run.
  Kernel kernel;
  kernel.add_signal_field(key("A"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("B"), BitVector::from_uint(1, 0));
  kernel.add_process("ping", [&]() -> SimTask {
    { auto aw = kernel.wait_for(42); co_await aw; }
    for (;;) {
      kernel.schedule_signal(key("A"), ~kernel.signal_value(key("A")));
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("B")});
      co_await aw;
    }
  });
  kernel.add_process("pong", [&]() -> SimTask {
    for (;;) {
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("A")});
      co_await aw;
      kernel.schedule_signal(key("B"), ~kernel.signal_value(key("B")));
    }
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("delta"), std::string::npos)
      << result.status;
  EXPECT_NE(result.status.message().find("t=42"), std::string::npos)
      << result.status;
  EXPECT_GE(result.kernel.max_deltas_in_instant, 100'000u);
}

TEST(KernelTest, TraceCapAbortsWithErrorInsteadOfGrowingUnbounded) {
  // A chatty process with tracing on must hit the configured cap and fail
  // with a descriptive status, not exhaust memory.
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.set_trace_limit(10);
  kernel.add_signal_field(key("S"), BitVector::from_uint(32, 0));
  kernel.add_process("chatty", [&]() -> SimTask {
    for (std::uint32_t i = 1; i <= 1000; ++i) {
      kernel.schedule_signal(key("S"), BitVector::from_uint(32, i));
      auto aw = kernel.wait_for(1);
      co_await aw;
    }
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("trace"), std::string::npos)
      << result.status;
  EXPECT_NE(result.status.message().find("10"), std::string::npos)
      << result.status;
  EXPECT_LE(kernel.trace().size(), 10u);
}

TEST(KernelTest, TraceUnderCapSucceeds) {
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.set_trace_limit(10);
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  kernel.add_process("p", [&]() -> SimTask {
    for (std::uint32_t i = 1; i <= 5; ++i) {
      kernel.schedule_signal(key("S"), BitVector::from_uint(8, i));
      auto aw = kernel.wait_for(1);
      co_await aw;
    }
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(kernel.trace().size(), 5u);
}

TEST(KernelTest, WideSignalValuesFlowThrough) {
  Kernel kernel;
  kernel.add_signal_field(key("WIDE"), BitVector(130));
  BitVector seen;
  kernel.add_process("writer", [&]() -> SimTask {
    BitVector v(130);
    v.set_bit(0, true);
    v.set_bit(129, true);
    kernel.schedule_signal(key("WIDE"), std::move(v));
    { auto aw = kernel.wait_for(1); co_await aw; }
    seen = kernel.signal_value(key("WIDE"));
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_TRUE(seen.bit(0));
  EXPECT_TRUE(seen.bit(129));
  EXPECT_FALSE(seen.bit(64));
}

TEST(KernelTest, SignalWidthMismatchAsserts) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector(8));
  EXPECT_THROW(kernel.schedule_signal(key("S"), BitVector(9)), InternalError);
  EXPECT_THROW(kernel.signal_value(key("GHOST")), InternalError);
}

TEST(KernelTest, ReleaseByNonHolderAsserts) {
  Kernel kernel;
  kernel.add_bus_lock("B");
  kernel.add_process("p", [&]() -> SimTask {
    kernel.release_bus("B");  // never acquired
    co_return;
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
}

TEST(KernelTest, TraceRecordsCommittedChanges) {
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.add_signal_field(key("S"), BitVector::from_uint(4, 0));
  kernel.add_process("p", [&]() -> SimTask {
    kernel.schedule_signal(key("S"), BitVector::from_uint(4, 1));
    { auto aw = kernel.wait_for(3); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(4, 2));
    co_return;
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  ASSERT_EQ(kernel.trace().size(), 2u);
  EXPECT_EQ(kernel.trace()[0].time, 0u);
  EXPECT_EQ(kernel.trace()[0].value.to_uint(), 1u);
  EXPECT_EQ(kernel.trace()[1].time, 3u);
  EXPECT_EQ(kernel.trace()[1].value.to_uint(), 2u);
}

TEST(KernelTest, QuiescenceWithWaitingServerIsNormal) {
  // A server parked on an event at the end of simulation is not an error;
  // its stats just show no completion.
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 0));
  kernel.add_process("server", [&]() -> SimTask {
    for (;;) {
      { std::vector<FieldKey> sens{key("S")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
    }
  });
  kernel.add_process("main", [&]() -> SimTask {
    { auto aw = kernel.wait_for(5); co_await aw; }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.end_time, 5u);
  EXPECT_TRUE(result.find("main")->completed);
  EXPECT_FALSE(result.find("server")->completed);
}

TEST(KernelTest, SecondRunStartsAFreshTrace) {
  // Regression: run() used to reset stats but keep appending to the
  // previous run's trace, so re-running a kernel produced a waveform with
  // stale leading entries (and a VCD with duplicated history).
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.add_signal_field(key("S"), BitVector::from_uint(4, 0));
  int runs = 0;
  kernel.add_process("p", [&]() -> SimTask {
    ++runs;
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(4, runs));
  });

  ASSERT_TRUE(kernel.run().status.is_ok());
  ASSERT_EQ(kernel.trace().size(), 1u);
  EXPECT_EQ(kernel.trace()[0].value.to_uint(), 1u);

  SimResult second = kernel.run();
  ASSERT_TRUE(second.status.is_ok());
  ASSERT_EQ(kernel.trace().size(), 1u) << "second run appended to old trace";
  EXPECT_EQ(kernel.trace()[0].value.to_uint(), 2u);
  EXPECT_EQ(second.kernel.trace_entries, 1u);
}

TEST(KernelTest, SignalKeysReturnsDeclarationOrder) {
  Kernel kernel;
  kernel.add_signal_field(key("Z"), BitVector(1));
  kernel.add_signal_field(key("A", "F1"), BitVector(8));
  kernel.add_signal_field(key("A", "F0"), BitVector(8));
  const std::vector<FieldKey>& keys = kernel.signal_keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], key("Z"));
  EXPECT_EQ(keys[1], key("A", "F1"));
  EXPECT_EQ(keys[2], key("A", "F0"));
  // The cached list is stable: repeated calls return the same object.
  EXPECT_EQ(&kernel.signal_keys(), &keys);
}

TEST(KernelTest, InternedIdsMirrorTheNameApi) {
  Kernel kernel;
  kernel.add_signal_field(key("X"), BitVector::from_uint(8, 7));
  kernel.add_signal_field(key("B", "DATA"), BitVector(8));
  const SignalId x = kernel.signal_id(key("X"));
  const SignalId data = kernel.signal_id(key("B", "DATA"));
  EXPECT_EQ(x, 0u);
  EXPECT_EQ(data, 1u);
  EXPECT_EQ(kernel.initial_value(x).to_uint(), 7u);

  kernel.add_process("p", [&]() -> SimTask {
    kernel.schedule_signal(data, BitVector::from_uint(8, 0x5a));
    { auto aw = kernel.wait_for(1); co_await aw; }
  });
  kernel.add_process("w", [&]() -> SimTask {
    const std::vector<SignalId> sens{data};
    {
      auto aw = kernel.wait_on(std::span<const SignalId>(sens));
      co_await aw;
    }
    kernel.schedule_signal(x, kernel.signal_value(data));
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(kernel.signal_value(key("X")).to_uint(), 0x5au);
  EXPECT_EQ(kernel.signal_value(x).to_uint(), 0x5au);
  EXPECT_EQ(result.kernel.wakeups_event, 1u);
}

TEST(KernelTest, WildcardSensitivityWakesOnAnyFieldCommit) {
  // FieldKey{sig, ""} subscribes to the whole record: commits to different
  // fields must each wake the waiter, and a commit to an unrelated signal
  // must not.
  Kernel kernel;
  kernel.add_signal_field(key("B", "START"), BitVector(1));
  kernel.add_signal_field(key("B", "DATA"), BitVector(8));
  kernel.add_signal_field(key("OTHER"), BitVector(1));
  std::vector<std::uint64_t> wake_times;
  kernel.add_process("w", [&]() -> SimTask {
    for (int i = 0; i < 2; ++i) {
      { std::vector<FieldKey> sens{key("B")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
      wake_times.push_back(kernel.now());
    }
  });
  kernel.add_process("driver", [&]() -> SimTask {
    kernel.schedule_signal(key("OTHER"), BitVector::from_uint(1, 1));
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("B", "START"), BitVector::from_uint(1, 1));
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("B", "DATA"), BitVector::from_uint(8, 0x42));
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_EQ(wake_times[0], 1u);  // B.START commit; OTHER did not wake it
  EXPECT_EQ(wake_times[1], 2u);  // B.DATA commit
  EXPECT_EQ(result.kernel.wakeups_event, 2u);
}

TEST(KernelTest, BusLockFairnessUnderContention) {
  // Three waiters queue behind a holder; grants must come in FIFO order
  // and the accounting must attribute each waiter's queueing time.
  Kernel kernel;
  kernel.add_bus_lock("BUS");
  std::vector<std::string> grant_order;
  kernel.add_process("holder", [&]() -> SimTask {
    { auto aw = kernel.acquire_bus("BUS"); co_await aw; }
    grant_order.push_back("holder");
    { auto aw = kernel.wait_for(4); co_await aw; }
    kernel.release_bus("BUS");
  });
  // `name` by value: reference parameters would dangle once the factory's
  // temporary dies at the coroutine's first suspension.
  auto contender = [&](std::string name, std::uint64_t start,
                       std::uint64_t hold) -> SimTask {
    { auto aw = kernel.wait_for(start); co_await aw; }
    { auto aw = kernel.acquire_bus("BUS"); co_await aw; }
    grant_order.push_back(name);
    { auto aw = kernel.wait_for(hold); co_await aw; }
    kernel.release_bus("BUS");
  };
  // Queue order is arrival order: c3 (t=1), c1 (t=2), c2 (t=3) — not
  // registration or name order.
  kernel.add_process("c1", [&]() { return contender("c1", 2, 2); });
  kernel.add_process("c2", [&]() { return contender("c2", 3, 2); });
  kernel.add_process("c3", [&]() { return contender("c3", 1, 2); });

  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  ASSERT_EQ(grant_order.size(), 4u);
  EXPECT_EQ(grant_order[0], "holder");
  EXPECT_EQ(grant_order[1], "c3");
  EXPECT_EQ(grant_order[2], "c1");
  EXPECT_EQ(grant_order[3], "c2");

  const BusStats* bus = result.find_bus("BUS");
  ASSERT_NE(bus, nullptr);
  EXPECT_EQ(bus->acquisitions, 4u);
  EXPECT_EQ(bus->contended_acquisitions, 3u);
  // holder releases at t=4: c3 (queued at t=1) waited 3. c3 releases at
  // t=6: c1 (queued at t=2) waited 4. c1 releases at t=8: c2 (queued at
  // t=3) waited 5. Total queueing 3 + 4 + 5 = 12.
  EXPECT_EQ(bus->wait_cycles, 12u);
  EXPECT_EQ(result.find("c3")->bus_wait_cycles, 3u);
  EXPECT_EQ(result.find("c1")->bus_wait_cycles, 4u);
  EXPECT_EQ(result.find("c2")->bus_wait_cycles, 5u);
  EXPECT_EQ(bus->hold_cycles, 4u + 2u + 2u + 2u);
  EXPECT_EQ(result.kernel.wakeups_bus_grant, 3u);
}

}  // namespace
}  // namespace ifsyn::sim
