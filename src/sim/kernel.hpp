// ifsyn/sim/kernel.hpp
//
// Discrete-event simulation kernel with VHDL-style semantics:
//
//   - *Signals* carry bit-vector values per record field. Assignments are
//     scheduled and commit at the next delta boundary (when every runnable
//     process has suspended); a commit that changes the value is an event.
//   - *Processes* are coroutines (see task.hpp). They suspend on
//     `wait for` (simulated clock cycles), `wait on` (signal events), and
//     `wait until` (a condition over signals).
//   - Time advances only when no process is runnable and no signal update
//     is pending, jumping to the earliest timed waiter.
//
// Deviation from strict VHDL, by design: `wait until cond` checks the
// condition immediately and does not suspend when it already holds.
// Strict VHDL waits for the next event even then, which makes generated
// handshakes sensitive to lost wakeups when two processes race to a
// rendezvous. The level-sensitive reading preserves the paper's protocol
// semantics (Fig. 4) and is robust to arbitrary interleaving.
//
// Data plane (see DESIGN.md Sec. 9): every signal field is interned at
// declaration time into a dense SignalId indexing a flat FieldState
// vector, so the hot paths never touch string keys. The scheduler is
// indexed rather than scan-based: an index-ordered ready bitmap replaces
// the all-process sweep, a min-heap of timed waiters replaces the
// next-instant scan, and per-field intrusive waiter lists replace the
// O(waiters x sensitivity x changed) wakeup matching — for `wait on`
// sensitivity and, keyed by the fields a condition reads, for
// `wait until`. The FieldKey name layer remains the public
// declaration/inspection API; names resolve to SignalIds once.
//
// The kernel also implements the bus-arbitration extension (paper Sec. 6
// future work): named FIFO locks with per-process wait-time accounting.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "obs/scoped_timer.hpp"
#include "sim/task.hpp"
#include "util/bit_vector.hpp"
#include "util/status.hpp"

namespace ifsyn::sim {

/// Identifies one field of one signal ("B.START"); field "" = scalar.
struct FieldKey {
  std::string signal;
  std::string field;

  friend bool operator==(const FieldKey&, const FieldKey&) = default;
  friend auto operator<=>(const FieldKey&, const FieldKey&) = default;
  std::string to_string() const {
    return field.empty() ? signal : signal + "." + field;
  }
};

/// Dense handle for one declared signal field: an index into the kernel's
/// flat field-state vector, assigned in declaration order. Resolve names
/// once via Kernel::signal_id and use the id on every hot-path access.
///
/// Ids with kWildcardBit set are whole-signal sensitivity handles (from
/// Kernel::wildcard_id): valid only inside wait_on sensitivity lists,
/// where they match a commit on any field of the signal.
using SignalId = std::uint32_t;
inline constexpr SignalId kInvalidSignalId = 0xffffffffu;
inline constexpr SignalId kWildcardBit = 0x80000000u;

/// Dense handle for one declared bus lock, in declaration order.
using BusId = std::uint32_t;
inline constexpr BusId kInvalidBusId = 0xffffffffu;

/// One committed signal change, for waveform inspection in tests/benches.
struct TraceEntry {
  std::uint64_t time;
  std::uint64_t delta;
  FieldKey key;
  BitVector value;
};

/// Statistics for one process after a run.
struct ProcessStats {
  std::string name;
  bool completed = false;          ///< body ran to its end at least once
  std::uint64_t finish_time = 0;   ///< time of (first) completion
  std::uint64_t activations = 0;   ///< 1 for one-shot, N for restarting
  std::uint64_t bus_wait_cycles = 0;  ///< time spent blocked on bus locks
};

/// Scheduler-level counters for one run. Everything here is derived from
/// simulated events, so it is deterministic for a given system and budget
/// (see obs/metrics.hpp for the contract these feed).
struct KernelStats {
  std::uint64_t instants = 0;        ///< distinct time points executed
  std::uint64_t delta_cycles = 0;    ///< total commit rounds across the run
  std::uint64_t max_deltas_in_instant = 0;
  std::uint64_t signal_commits = 0;  ///< commits that changed a field value
  std::uint64_t wakeups_time = 0;    ///< processes resumed by `wait for`
  std::uint64_t wakeups_event = 0;   ///< ... by `wait on` sensitivity hits
  std::uint64_t wakeups_condition = 0;  ///< ... by `wait until` turning true
  std::uint64_t wakeups_bus_grant = 0;  ///< ... by acquiring a bus lock
  std::uint64_t trace_entries = 0;   ///< waveform entries recorded
};

/// Per-bus-lock accounting (arbitration extension): how long the bus was
/// held (≈ busy transferring) and how long requesters queued for it. Wait
/// time of processes still parked at quiescence is not included.
struct BusStats {
  std::string bus;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended_acquisitions = 0;  ///< grants that had to queue
  std::uint64_t hold_cycles = 0;
  std::uint64_t wait_cycles = 0;

  /// Fraction of the run the bus was held; the report's utilization line.
  double utilization(std::uint64_t end_time) const {
    return end_time == 0
               ? 0.0
               : static_cast<double>(hold_cycles) /
                     static_cast<double>(end_time);
  }
};

/// Result of Kernel::run.
struct SimResult {
  Status status;                 ///< ok, or why the run aborted
  std::uint64_t end_time = 0;    ///< simulation time at quiescence
  std::vector<ProcessStats> processes;
  KernelStats kernel;
  std::vector<BusStats> buses;   ///< one per declared lock, name order

  const BusStats* find_bus(const std::string& name) const {
    for (const auto& b : buses)
      if (b.bus == name) return &b;
    return nullptr;
  }

  const ProcessStats* find(const std::string& name) const {
    for (const auto& p : processes)
      if (p.name == name) return &p;
    return nullptr;
  }
};

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- configuration ----------------------------------------------------

  /// Declare a signal field with an initial value (all zeros typical).
  /// Fields are interned in declaration order; the first declaration gets
  /// SignalId 0.
  void add_signal_field(const FieldKey& key, BitVector initial);

  /// Declare a named bus lock (arbitration extension).
  void add_bus_lock(const std::string& bus);

  /// Register a process. `factory` builds one activation of the body; it
  /// is re-invoked on restart when `restarts` is true.
  void add_process(const std::string& name, std::function<SimTask()> factory,
                   bool restarts = false);

  /// Record every committed signal change (off by default).
  void enable_trace(bool on) { trace_enabled_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Cap on recorded trace entries. A traced run that would exceed the cap
  /// aborts with kSimulationError instead of growing without bound on
  /// pathological specs. Default: kDefaultTraceLimit.
  void set_trace_limit(std::size_t max_entries) {
    trace_limit_ = max_entries;
  }

  /// Attach a metrics registry / trace sink. The kernel counts its
  /// per-event statistics and its per-acquisition bus hold/wait durations
  /// in plain per-run integers (always on; no registry write and no
  /// atomic during the run) and flushes them into the registry once, at
  /// the end of run(): counters under the "sim." prefix plus the
  /// sim.bus_hold_cycles / sim.bus_wait_cycles histograms. A registry
  /// read mid-run therefore sees none of the current run. All flushed
  /// values are Determinism::kDeterministic.
  void set_obs(const obs::ObsContext& ctx) { obs_ = ctx; }

  /// The attached observability hooks (default-empty when none were set).
  /// Execution engines layered on the kernel register their own metrics
  /// (e.g. the bytecode VM's sim.vm.* counters) through the same context.
  const obs::ObsContext& obs() const { return obs_; }

  /// Register `hook` to run at the end of every run(), once the last
  /// process has suspended, just before the kernel flushes its own
  /// counts. Execution engines flush their per-run counts through it (the
  /// bytecode VM's sim.vm.executed_ops), so they too write the registry
  /// once per run. What the hook captures must outlive the kernel's runs,
  /// as for add_process factories.
  void add_run_end_hook(std::function<void()> hook);

  // ---- name resolution (cold path; resolve once, keep the id) -----------

  /// Dense id of a declared field. Asserts when the key is unknown.
  SignalId signal_id(const FieldKey& key) const;

  /// Whole-signal sensitivity handle (kWildcardBit-tagged): use in
  /// wait_on sensitivity lists to wake on a commit to any field of
  /// `signal`. Asserts when no field of the signal is declared.
  SignalId wildcard_id(const std::string& signal) const;

  /// Non-asserting lookups for elaboration pre-passes that must preserve
  /// lazy error timing: unknown names return the kInvalid sentinel.
  SignalId find_signal_id(const FieldKey& key) const;
  SignalId find_wildcard_id(const std::string& signal) const;
  BusId find_bus_id(const std::string& bus) const;

  /// Dense id of a declared bus lock. Asserts when the name is unknown.
  BusId bus_id(const std::string& bus) const;

  /// All declared signal fields, in declaration (elaboration) order.
  /// Returns the cached key list; the reference stays valid until the
  /// next add_signal_field.
  const std::vector<FieldKey>& signal_keys() const { return keys_; }

  // ---- runtime services (called from inside process coroutines) ---------

  /// Current value of a signal field.
  const BitVector& signal_value(const FieldKey& key) const;
  const BitVector& signal_value(SignalId id) const {
    return fields_[id].current;
  }

  /// Value the field was declared with (time-0 value, for waveform dumps).
  const BitVector& initial_value(const FieldKey& key) const;
  const BitVector& initial_value(SignalId id) const {
    return fields_[id].initial;
  }

  /// Schedule `value` onto the field; commits at the next delta boundary.
  void schedule_signal(const FieldKey& key, BitVector value);
  void schedule_signal(SignalId id, BitVector value);

  std::uint64_t now() const { return time_; }

  // Awaitables. Each suspends the current process with a wait reason the
  // scheduler understands. Use as: `co_await kernel.wait_for(2);`
  struct Awaiter;
  Awaiter wait_for(std::uint64_t cycles);
  /// Name-based sensitivity; `field==""` keys match a commit to any field
  /// of the signal (whole-signal wildcard). Unknown keys never match (and
  /// so never wake), mirroring the original scan-based semantics.
  Awaiter wait_on(std::vector<FieldKey> sensitivity);
  /// Interned sensitivity: ids must outlive the co_await (callers keep
  /// them in elaboration-time caches).
  Awaiter wait_on(std::span<const SignalId> sensitivity);
  /// Level-sensitive `wait until`: `cond` is evaluated at once (no
  /// suspension when it holds) and, while the process is parked, again
  /// in delta commits. It must not read time. Indexed form: `reads` names
  /// the distinct fields `cond` reads (plain field ids, no kWildcardBit;
  /// the span must outlive the co_await), and `cond` may otherwise read
  /// only state no other process can change while this one is parked (its
  /// own variables). It is then re-evaluated only in a commit that
  /// changed a field in `reads`, at most once per commit.
  Awaiter wait_until(std::function<bool()> cond,
                     std::span<const SignalId> reads);
  /// Unindexed form, for conditions a field read set cannot cover (shared
  /// variables another process writes without a signal event) and for the
  /// AST reference engine: re-evaluated in every change-commit.
  Awaiter wait_until(std::function<bool()> cond);
  /// Delta commits of the current run that changed at least one field
  /// value ("change-commits"): the rounds in which a parked unindexed
  /// condition is re-evaluated. Engines use it to account for condition
  /// evaluations they no longer perform (sim.vm.executed_ops).
  std::uint64_t change_commits() const { return change_commits_; }
  Awaiter acquire_bus(const std::string& bus);
  Awaiter acquire_bus(BusId bus);
  void release_bus(const std::string& bus);
  void release_bus(BusId bus);

  // ---- execution ---------------------------------------------------------

  /// Run to quiescence (no runnable process, no pending signal update, no
  /// timed waiter) or until `max_time` cycles, whichever first. Exceeding
  /// max_time or the per-instant delta limit yields kSimulationError.
  /// Each run starts a fresh trace and fresh statistics; signal values
  /// carry over from the previous run (matching VHDL re-simulation of a
  /// warm design is not a goal — this simply preserves the historical
  /// inspect-after-run contract).
  SimResult run(std::uint64_t max_time = 1'000'000);

 private:
  enum class WaitKind { kReady, kTime, kEvent, kCondition, kBusLock, kDone };

  struct ProcessRuntime;

  /// One registration of a process on one waiter list. Nodes are owned
  /// by the process (`event_nodes`) and linked intrusively into a
  /// per-field doubly-linked list — the field's `wait on` list, its
  /// `wait until` list for an indexed condition waiter, or, when `sig`
  /// carries kWildcardBit, the whole-signal wildcard list — so both
  /// wake-by-signal (walk the list) and unsubscribe-on-wake (unlink every
  /// node) are O(degree).
  struct EventNode {
    ProcessRuntime* proc = nullptr;
    EventNode* prev = nullptr;
    EventNode* next = nullptr;
    SignalId sig = kInvalidSignalId;
  };

  struct ProcessRuntime {
    std::string name;
    std::function<SimTask()> factory;
    bool restarts = false;
    std::uint32_t index = 0;  ///< position in processes_, scheduler identity
    SimTask task;
    std::coroutine_handle<> resume_point;

    WaitKind wait = WaitKind::kReady;
    std::uint64_t wake_time = 0;
    /// Linked while wait == kEvent, or kCondition with a read set.
    std::vector<EventNode> event_nodes;
    std::function<bool()> condition;
    std::uint32_t cond_slot = 0;  ///< position in condition_waiters_
    /// change_commits_ value of the last commit that evaluated this
    /// indexed condition waiter (or when it parked): a waiter reached
    /// through several changed fields is evaluated once per commit.
    std::uint64_t cond_stamp = 0;
    std::uint64_t lock_wait_start = 0;

    ProcessStats stats;
  };

  struct FieldState {
    BitVector current;
    BitVector initial;
    std::optional<BitVector> pending;
    EventNode* waiters = nullptr;   ///< head of this field's waiter list
    EventNode* cond_waiters = nullptr;  ///< indexed `wait until` waiters
    std::uint32_t signal_ord = 0;   ///< owning signal, for wildcard wakes
  };

  struct BusLockState {
    std::string name;
    ProcessRuntime* holder = nullptr;
    std::deque<ProcessRuntime*> waiters;
    std::uint64_t hold_start = 0;  ///< time the current holder acquired
    BusStats stats;
  };

  /// Timed waiter heap entry; min-ordered by wake time. Ties pop in
  /// arbitrary order — wakeups only set index-ordered ready bits, so tie
  /// order is unobservable.
  struct TimedEntry {
    std::uint64_t time;
    std::uint32_t index;
    friend bool operator>(const TimedEntry& a, const TimedEntry& b) {
      return a.time > b.time;
    }
  };

  FieldState& field_state(const FieldKey& key);
  const FieldState& field_state(const FieldKey& key) const;

  // ---- ready bitmap ------------------------------------------------------
  // Index-ordered so that dispatch replicates the original
  // sweep-in-registration-order semantics exactly (determinism contract),
  // while only ever touching set bits.
  void make_ready(ProcessRuntime& proc);
  std::size_t next_ready(std::size_t from) const;  ///< npos when none

  // ---- sensitivity index -------------------------------------------------
  /// Park `proc` as `kind` (kEvent or kCondition) on the lists of `ids`.
  void link_waiter(ProcessRuntime& proc, WaitKind kind,
                   std::span<const SignalId> ids);
  /// Unlink every node of `proc`, which is still parked (proc.wait names
  /// the lists its nodes sit on).
  void unlink_waiter(ProcessRuntime& proc);
  EventNode*& list_head(SignalId sig, WaitKind kind);
  void remove_condition_waiter(ProcessRuntime& proc);

  /// Resume every kReady process until all are suspended or done.
  void run_ready();
  /// Commit pending signal values; wake event/condition waiters.
  /// Returns true if anything changed or anyone woke.
  bool commit_deltas();
  /// Jump time to the earliest kTime waiter; returns false if none.
  bool advance_time(std::uint64_t max_time);

  void finish_process(ProcessRuntime& proc);
  /// Per-run tally of one cycle-valued bus histogram, in plain integers
  /// bucketed like obs::Histogram; flush_metrics merges it into the
  /// registry once per run.
  struct CycleTally {
    std::vector<std::uint64_t> counts;  ///< one per bucket, overflow last
    std::uint64_t sum = 0;

    void observe(std::uint64_t cycles);
  };

  /// Grant the lock to `next` at the current time, with accounting.
  void grant_bus(BusLockState& lock, ProcessRuntime* next, bool contended);
  /// Push KernelStats and the bus tallies into the attached registry.
  void flush_metrics(const SimResult& result) const;

  std::uint64_t time_ = 0;
  std::uint64_t delta_ = 0;  // delta count within the current instant
  ProcessRuntime* current_ = nullptr;

  // Interning tables: dense state plus the name layer resolving into it.
  std::vector<FieldState> fields_;          // indexed by SignalId
  std::vector<FieldKey> keys_;              // id -> declared key
  std::map<FieldKey, SignalId> index_;      // name -> id (cold path)
  std::map<std::string, std::uint32_t> signal_ord_;  // name -> ordinal
  std::vector<EventNode*> wildcard_waiters_;  // ordinal -> wildcard list

  std::vector<SignalId> dirty_;    // fields with pending values, in order
  std::vector<SignalId> changed_;  // scratch reused across commits

  std::vector<BusLockState> bus_locks_;       // indexed by BusId
  std::map<std::string, BusId> bus_index_;    // name -> id (also name order)
  std::vector<std::unique_ptr<ProcessRuntime>> processes_;

  // Indexed scheduler state.
  std::vector<std::uint64_t> ready_bits_;  // 1 bit per process index
  std::size_t ready_count_ = 0;
  std::priority_queue<TimedEntry, std::vector<TimedEntry>,
                      std::greater<TimedEntry>>
      timed_;
  std::vector<ProcessRuntime*> condition_waiters_;  ///< unindexed only
  std::uint64_t change_commits_ = 0;

  bool trace_enabled_ = false;
  std::vector<TraceEntry> trace_;
  std::size_t trace_limit_ = kDefaultTraceLimit;
  Status run_status_;
  KernelStats stats_;
  CycleTally hold_tally_;  ///< bus hold durations, per release
  CycleTally wait_tally_;  ///< bus wait durations, per contended grant
  obs::ObsContext obs_;
  std::vector<std::function<void()>> run_end_hooks_;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::uint64_t kMaxDeltasPerInstant = 100'000;
  static constexpr std::size_t kDefaultTraceLimit = 4'000'000;

  friend struct KernelAwaiterAccess;
};

/// The one awaiter type used for every kernel suspension.
struct Kernel::Awaiter {
  Kernel* kernel = nullptr;
  WaitKind kind = WaitKind::kReady;
  std::uint64_t cycles = 0;
  std::vector<FieldKey> sensitivity;           ///< name-based wait_on
  /// Interned wait_on sensitivity, or an indexed condition's read set.
  std::span<const SignalId> sensitivity_ids;
  std::function<bool()> condition;
  bool cond_indexed = false;  ///< wait_until with a read set
  std::string bus;
  BusId bus_id = kInvalidBusId;

  bool await_ready() const noexcept;
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

}  // namespace ifsyn::sim
