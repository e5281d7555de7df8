// ifsyn/sim/bytecode/program_cache.hpp
//
// Size-bounded, concurrent store of compiled bytecode
// artifacts, so repeated simulations of the same system (the serve front
// end's workload, repeated co-simulations inside one exploration, warm
// batch passes) reuse one CompiledSystem instead of recompiling per run.
//
// Why sharing is sound: a CompiledSystem is self-contained (program.hpp)
// and immutable after compile; all mutable execution state lives in each
// Vm's ExecState. The embedded SignalId/BusId operands are dense ids the
// kernel assigns in declaration order, and declaration order is a pure
// function of the system — so any kernel set up (Interpreter::setup) for
// a system with the same cache key interns identical ids, and a cached
// program executes on it exactly as a fresh compile would. The
// differential test in tests/sim/program_cache_test.cpp holds the two
// paths to identical simulation results.
//
// Keys come from system_cache_key(): a content hash over the printed IR
// plus the kernel-relevant facts the printer does not render (bus lock
// declarations). Keyed lookups use the same compute-once shared_future
// idiom as explore::EstimationCache: concurrent requests for one key
// block on a single compile. A capacity bounds memory via LRU eviction;
// hit/miss/eviction counts land on caller-supplied obs counters.
//
// Nothing consults a cache by default — one-shot CLI runs compile
// privately. A front end that owns a cache passes it as
// SimConfig::programs (sim/config.hpp); Vm::setup then routes compiles
// through it. Several caches (one per serve::Service, say) coexist in one
// process.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "sim/bytecode/program.hpp"
#include "spec/system.hpp"

namespace ifsyn::sim::bytecode {

/// Content hash identifying a system for artifact reuse: everything the
/// bytecode compiler and the kernel-id interning read, plus the
/// optimization level the artifact was (or would be) rewritten at — opt
/// and reference artifacts never collide in a shared store. Two systems
/// with equal keys produce byte-identical CompiledSystems.
std::string system_cache_key(const spec::System& system,
                             OptLevel level = OptLevel::kNone);

class ProgramCache {
 public:
  /// `capacity` > 0 bounds the entry count with LRU eviction; 0 =
  /// unbounded. Counters (optional, registry-owned, must outlive the
  /// cache) surface hits/misses/evictions.
  explicit ProgramCache(std::size_t capacity = 0,
                        obs::Counter* hits = nullptr,
                        obs::Counter* misses = nullptr,
                        obs::Counter* evictions = nullptr)
      : capacity_(capacity),
        hits_(hits ? hits : &own_hits_),
        misses_(misses ? misses : &own_misses_),
        evictions_(evictions ? evictions : &own_evictions_) {}

  /// Returns the artifact for `key`, compiling via `compile` on first
  /// request. `compile` must be pure with respect to the key. `was_hit`
  /// (optional) reports whether the artifact came from memory.
  std::shared_ptr<const CompiledSystem> get_or_compile(
      const std::string& key,
      const std::function<CompiledSystem()>& compile,
      bool* was_hit = nullptr);

  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }
  std::uint64_t evictions() const { return evictions_->value(); }
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const CompiledSystem>> future;
    std::list<std::string>::iterator lru;
    std::uint64_t gen = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  ///< most recently used first (bounded only)
  std::size_t capacity_ = 0;
  std::uint64_t gen_ = 0;
  obs::Counter own_hits_;
  obs::Counter own_misses_;
  obs::Counter own_evictions_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
};

}  // namespace ifsyn::sim::bytecode
