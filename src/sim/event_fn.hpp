// EventFn: the engine's move-only callable, built so the hot scheduling
// paths never touch the general-purpose heap.
//
// Storage policy:
//  * captures up to kInlineSize bytes (sized for the largest real capture
//    set in src/ — an overlay CtrlMsg move-capture at 56 bytes) live inline
//    in the EventFn itself;
//  * larger captures take an exact-size allocation — the escape hatch,
//    counted as a heap closure (no shipped workload schedules one).
//
// Dispatch is a single indirect call through a per-type vtable; moving an
// EventFn relocates the inline capture (move-construct + destroy, which
// optimizes to a memcpy for the trivially movable captures the simulator
// schedules) or just steals the heap pointer.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pdc::sim {

class EventFn {
 public:
  /// Inline capture budget: one cache line minus the vtable pointer.
  static constexpr std::size_t kInlineSize = 56;

  EventFn() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace(std::forward<F>(f));
  }

  /// Destroys the current callable (if any) and constructs `f` directly in
  /// this EventFn's storage — the engine's pooled entries use this to skip
  /// the extra relocation a construct-then-move-assign would cost.
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  void emplace(F&& f) {
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event closures must be nothrow-movable (the heap relocates them)");
    reset();
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>) {
      // The common engine capture ([this], [this, id], a small struct by
      // value): relocation is a raw memcpy and destruction is skipped
      // entirely — no indirect calls outside invoke itself.
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &trivial_vtable<D>;
    } else if constexpr (sizeof(D) <= kInlineSize &&
                         alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &inline_vtable<D>;
    } else {
      ptr() = new D(std::forward<F>(f));
      vt_ = &exact_vtable<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  /// True when the capture lives outside the EventFn (an exact-size heap
  /// block) — the counter behind EngineStats' inline-vs-heap split.
  bool on_heap() const { return vt_ != nullptr && vt_->heap; }

  void operator()() { vt_->invoke(storage()); }

  void reset() {
    if (vt_) {
      if (vt_->destroy) vt_->destroy(storage());
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // null: memcpy the inline buffer
    void (*destroy)(void*);                  // null: trivially destructible
    bool heap;
  };

  void* storage() { return buf_; }
  void*& ptr() { return *reinterpret_cast<void**>(static_cast<void*>(buf_)); }

  void steal(EventFn& other) {
    vt_ = other.vt_;
    if (vt_) {
      if (vt_->relocate)
        vt_->relocate(buf_, other.buf_);
      else
        __builtin_memcpy(buf_, other.buf_, kInlineSize);
      other.vt_ = nullptr;
    }
  }

  template <class D>
  static void invoke_inline(void* p) {
    (*std::launder(reinterpret_cast<D*>(p)))();
  }
  template <class D>
  static void relocate_inline(void* dst, void* src) {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }
  template <class D>
  static void destroy_inline(void* p) {
    std::launder(reinterpret_cast<D*>(p))->~D();
  }

  template <class D>
  static D* pointee(void* p) {
    return static_cast<D*>(*reinterpret_cast<void**>(p));
  }
  template <class D>
  static void invoke_ptr(void* p) {
    (*pointee<D>(p))();
  }
  static void relocate_ptr(void* dst, void* src) {
    *reinterpret_cast<void**>(dst) = *reinterpret_cast<void**>(src);
  }
  template <class D>
  static void destroy_exact(void* p) {
    delete pointee<D>(p);
  }

  template <class D>
  static constexpr VTable trivial_vtable{&invoke_inline<D>, nullptr, nullptr, false};
  template <class D>
  static constexpr VTable inline_vtable{&invoke_inline<D>, &relocate_inline<D>,
                                        &destroy_inline<D>, false};
  template <class D>
  static constexpr VTable exact_vtable{&invoke_ptr<D>, &relocate_ptr, &destroy_exact<D>,
                                       true};

  // Buffer first: with the 16-byte alignment on buf_, putting vt_ ahead of
  // it would pad the struct to 80 bytes; this order keeps sizeof(EventFn)
  // at exactly one cache line.
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const VTable* vt_ = nullptr;
};

static_assert(sizeof(EventFn) == 64, "EventFn must stay one cache line");

}  // namespace pdc::sim
