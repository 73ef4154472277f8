// A derive-once store: the first caller of a key derives its value, other
// callers of that key wait for that one derivation. The lock covers only
// the slot lookup, so distinct keys derive concurrently. A derivation that
// throws is not cached (its waiters see the exception; the next call
// derives afresh). Values are immutable shared_ptr<const V>, never evicted.
#pragma once

#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace pdc::support {

template <class Key, class V>
class Memo {
 public:
  using Ptr = std::shared_ptr<const V>;

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
        owner.emplace();
        it = slots_.emplace(key, owner->get_future().share()).first;
      }
      slot = it->second;
    }
    if (!owner) return slot.get();
    try {
      Ptr value = std::make_shared<const V>(derive());
      owner->set_value(value);
      return value;
    } catch (...) {
      // Unpublish first, so values() never meets a failed slot.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        slots_.erase(key);
      }
      owner->set_exception(std::current_exception());
      throw;
    }
  }

  /// Snapshot of the published values; derivations in flight are skipped.
  std::vector<Ptr> values() const {
    std::vector<Ptr> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : slots_)
      if (entry.second.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
        out.push_back(entry.second.get());
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<Key, std::shared_future<Ptr>> slots_;
};

}  // namespace pdc::support
