#pragma once

#include <memory>
#include <type_traits>

namespace ms::sim {

template <typename Signature>
class FunctionRef;

/// A non-owning reference to a callable `void(Args...)`. The callable must
/// outlive the call it is passed to, so nothing is copied and nothing
/// allocated, however much the lambda captures. The pool's job bodies and the
/// kernel engine's block bodies are passed this way.
template <typename... Args>
class FunctionRef<void(Args...)> {
public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_v<F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor): takes the lambda in place
      : fn_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* fn, Args... args) {
          (*static_cast<std::remove_reference_t<F>*>(fn))(args...);
        }) {}

  void operator()(Args... args) const { call_(fn_, args...); }

private:
  void* fn_;
  void (*call_)(void*, Args...);
};

}  // namespace ms::sim
