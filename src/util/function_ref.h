#ifndef CAUSALFORMER_UTIL_FUNCTION_REF_H_
#define CAUSALFORMER_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

/// \file
/// FunctionRef: a non-owning reference to a callable, for parameters that
/// are called during the call and never stored. Unlike std::function it never
/// copies the callable, so passing a lambda with any captures costs no heap
/// allocation. The referenced callable must outlive the FunctionRef — true
/// for a lambda written in the call's argument list.

namespace causalformer {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same<std::decay_t<F>, FunctionRef>::value &&
                std::is_invocable_r<R, F&, Args...>::value>>
  FunctionRef(F&& f)  // NOLINT: implicit, like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace causalformer

#endif  // CAUSALFORMER_UTIL_FUNCTION_REF_H_
