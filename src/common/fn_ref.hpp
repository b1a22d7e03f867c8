// Non-owning reference to a callable, for hot callback parameters.
//
// A FnRef is two words — an object pointer and a trampoline — built from any
// callable without copying or allocating it, so handing a lambda to a
// per-round loop costs nothing, where a std::function may heap-allocate its
// captures on every construction. The referenced callable must outlive the
// FnRef: take one as a parameter and call it before returning; never store
// one past the call that received it.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace ncc {

template <typename Sig>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)> {
 public:
  FnRef() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FnRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FnRef(F&& fn)  // implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          auto& f = *static_cast<std::remove_reference_t<F>*>(obj);
          if constexpr (std::is_void_v<R>) {
            f(std::forward<Args>(args)...);
          } else {
            return f(std::forward<Args>(args)...);
          }
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace ncc
