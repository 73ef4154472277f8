// A derive-once store: the first caller of a key derives its value, other
// callers of that key wait for that one derivation (and count as hits). The
// lock covers only the slot bookkeeping, so distinct keys derive
// concurrently. A derivation that throws is not cached (its waiters see the
// exception; the next call derives afresh). Values are immutable
// shared_ptr<const V>.
//
// Each published entry is charged `charge(key, value)` bytes. Under a byte
// budget (default: unbounded) the least-recently-used published entries are
// evicted until the charged bytes fit; an entry over the whole budget is
// returned to its callers but not kept, and evicts nothing. A budget of 0
// keeps nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace pdc::support {

/// Point-in-time counters of one Memo.
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  // derivations started
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;  // derivations published and kept
  std::size_t entries = 0;       // published, resident
  std::size_t bytes = 0;         // charged bytes of the resident entries
  std::size_t budget_bytes = 0;
};

template <class Key, class V>
class Memo {
 public:
  using Ptr = std::shared_ptr<const V>;
  using Charge = std::function<std::size_t(const Key&, const V&)>;
  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  /// No charge function charges every entry 0 bytes.
  explicit Memo(Charge charge = {}, std::size_t budget_bytes = kUnbounded)
      : charge_(std::move(charge)), budget_(budget_bytes) {}

  /// The value for `key`; the first caller derives it with `derive()`,
  /// which returns a V.
  template <class Derive>
  Ptr get(const Key& key, Derive&& derive) {
    std::optional<std::promise<Ptr>> owner;
    std::shared_future<Ptr> slot;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = slots_.find(key);
      if (it == slots_.end()) {
        ++misses_;
        owner.emplace();
        it = slots_.emplace(key, Slot{owner->get_future().share(), 0, std::nullopt}).first;
      } else {
        ++hits_;
        if (it->second.lru) lru_.splice(lru_.begin(), lru_, *it->second.lru);
      }
      slot = it->second.value;
    }
    if (!owner) return slot.get();
    Ptr value;
    try {
      value = std::make_shared<const V>(derive());
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        slots_.erase(key);
      }
      owner->set_exception(std::current_exception());
      throw;
    }
    publish(key, charge_ ? charge_(key, *value) : 0);
    owner->set_value(value);
    return value;
  }

  MemoStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MemoStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.insertions = insertions_;
    s.entries = lru_.size();
    s.bytes = bytes_;
    s.budget_bytes = budget_;
    return s;
  }

 private:
  using Lru = std::list<const Key*>;  // front = most recently used
  struct Slot {
    std::shared_future<Ptr> value;
    std::size_t bytes = 0;
    std::optional<typename Lru::iterator> lru;  // set once published
  };

  void publish(const Key& key, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (budget_ == 0 || bytes > budget_) {
      slots_.erase(it);  // waiters hold the future; nothing else is touched
      return;
    }
    ++insertions_;
    it->second.bytes = bytes;
    it->second.lru = lru_.insert(lru_.begin(), &it->first);
    bytes_ += bytes;
    while (bytes_ > budget_) {
      auto victim = slots_.find(*lru_.back());
      bytes_ -= victim->second.bytes;
      lru_.pop_back();
      slots_.erase(victim);
      ++evictions_;
    }
  }

  Charge charge_;
  const std::size_t budget_;
  mutable std::mutex mutex_;
  std::map<Key, Slot> slots_;  // published and in flight
  Lru lru_;                    // published only
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, insertions_ = 0;
};

}  // namespace pdc::support
