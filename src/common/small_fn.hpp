// SmallFn: a move-only `void()` callable with a 64-byte inline buffer.
//
// std::function on libstdc++ only stores captures inline when they are
// trivially copyable and at most 16 bytes; a ServiceCenter copy job
// captures a shared_ptr plus a couple of ids (24..56 bytes), so every
// submitted job used to pay a heap allocation just to carry its
// completion closure. SmallFn raises the inline threshold to 64 bytes
// and drops the copyability requirement (move-only captures like
// unique_ptr are fine). Callables that are still too big — or that need
// stricter alignment than max_align_t — fall back to a single heap cell;
// correctness never depends on fitting inline.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gmmcs {

class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { steal(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  /// Builds a callable straight into this SmallFn, with no temporary to
  /// relocate: the EventLoop constructs each callback in its parked slot
  /// this way. An engaged callable is destroyed first, so `f` must not
  /// refer into it. If constructing `f` throws, this SmallFn is left empty.
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  void emplace(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
  }

  void operator()() { vt_->invoke(buf_); }
  explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// True when the wrapped callable lives in the inline buffer (no heap).
  [[nodiscard]] bool is_inline() const noexcept { return vt_ != nullptr && vt_->inline_stored; }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;  // move into `to`, destroy `from`
    void (*destroy)(void* storage) noexcept;
    bool inline_stored;
  };

  // The move constructor must stay noexcept, so inline storage also
  // requires a nothrow-movable callable (true for every capture in-tree).
  template <class D>
  static constexpr bool fits_inline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  struct InlineOps {
    static D* self(void* s) noexcept { return std::launder(reinterpret_cast<D*>(s)); }
    static void invoke(void* s) { (*self(s))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) D(std::move(*self(from)));
      self(from)->~D();
    }
    static void destroy(void* s) noexcept { self(s)->~D(); }
  };

  template <class D>
  struct HeapOps {
    static D* self(void* s) noexcept { return *std::launder(reinterpret_cast<D**>(s)); }
    static void invoke(void* s) { (*self(s))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) D*(self(from));  // just move the pointer across
    }
    static void destroy(void* s) noexcept { delete self(s); }
  };

  template <class D>
  static constexpr VTable kInlineVTable{&InlineOps<D>::invoke, &InlineOps<D>::relocate,
                                        &InlineOps<D>::destroy, /*inline_stored=*/true};
  template <class D>
  static constexpr VTable kHeapVTable{&HeapOps<D>::invoke, &HeapOps<D>::relocate,
                                      &HeapOps<D>::destroy, /*inline_stored=*/false};

  template <class D, class F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &kHeapVTable<D>;
    }
  }

  void steal(SmallFn& other) noexcept {
    if (other.vt_ != nullptr) {
      other.vt_->relocate(other.buf_, buf_);
      vt_ = other.vt_;
      other.vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace gmmcs
