#include "sim/bytecode/program_cache.hpp"

#include "spec/printer.hpp"

namespace ifsyn::sim::bytecode {

namespace {

/// FNV-1a over `data`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& data) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::string system_cache_key(const spec::System& system, OptLevel level) {
  // The printed IR covers variables, signals, channels, buses, procedures
  // and processes — everything compile() lowers. Appended explicitly: two
  // kernel-relevant facts the printer does not render (which buses
  // declare locks — BusId interning order depends on the arbitrated set),
  // the optimization level (a store shared by callers at mixed levels
  // keeps one artifact per level and can never hand an optimized program
  // to a reference run), and a version salt so cached artifacts
  // never survive an ISA change.
  std::string text = spec::print_system(system);
  text += "\n|locks:";
  for (const auto& bus : system.buses()) {
    if (bus->arbitrated) {
      text += ' ';
      text += bus->name;
    }
  }
  text += "|opt:";
  text += std::to_string(static_cast<int>(level));
  text += "|bytecode-v2";
  // Two independent 64-bit FNV-1a streams (different offset bases) plus
  // the length: collisions would silently run the wrong program, so the
  // key is effectively 128 bits + size.
  const std::uint64_t h1 = fnv1a(14695981039346656037ull, text);
  const std::uint64_t h2 = fnv1a(0x9e3779b97f4a7c15ull, text);
  return hex64(h1) + hex64(h2) + "-" + std::to_string(text.size());
}

std::shared_ptr<const CompiledSystem> ProgramCache::get_or_compile(
    const std::string& key,
    const std::function<CompiledSystem()>& compile,
    bool* was_hit) {
  std::promise<std::shared_ptr<const CompiledSystem>> promise;
  std::shared_future<std::shared_ptr<const CompiledSystem>> future;
  bool owner = false;
  std::uint64_t my_gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      hits_->add(1);
      future = it->second.future;
      if (capacity_ > 0) {
        lru_.splice(lru_.begin(), lru_, it->second.lru);
      }
    } else {
      misses_->add(1);
      owner = true;
      future = promise.get_future().share();
      Entry entry;
      entry.future = future;
      entry.gen = my_gen = ++gen_;
      if (capacity_ > 0) {
        lru_.push_front(key);
        entry.lru = lru_.begin();
      }
      map_.emplace(key, std::move(entry));
      // Evict beyond the bound, never the key just inserted. Evicted
      // artifacts stay alive for as long as running Vms hold their
      // shared_ptr; the store merely forgets them.
      while (capacity_ > 0 && map_.size() > capacity_ && lru_.size() > 1) {
        map_.erase(lru_.back());
        lru_.pop_back();
        evictions_->add(1);
      }
    }
  }
  if (owner) {
    try {
      promise.set_value(
          std::make_shared<const CompiledSystem>(compile()));
    } catch (...) {
      // Same poisoned-entry protocol as explore::EstimationCache: wake
      // every waiter with the exception, then drop the entry (if it is
      // still ours) so a retry recompiles.
      promise.set_exception(std::current_exception());
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end() && it->second.gen == my_gen) {
          if (capacity_ > 0) lru_.erase(it->second.lru);
          map_.erase(it);
        }
      }
      if (was_hit) *was_hit = false;
      return future.get();  // rethrows
    }
  }
  if (was_hit) *was_hit = !owner;
  return future.get();
}

std::size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace ifsyn::sim::bytecode
