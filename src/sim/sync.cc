#include "src/sim/sync.h"

namespace magesim {

namespace internal {
LockWaitObserver g_lock_wait_fn = nullptr;
void* g_lock_wait_ctx = nullptr;
}  // namespace internal

void SetLockWaitObserver(LockWaitObserver fn, void* ctx) {
  internal::g_lock_wait_fn = fn;
  internal::g_lock_wait_ctx = ctx;
}

namespace analysis_internal {
const SimAnalysisHooks* g_hooks = nullptr;
int g_exempt_depth = 0;
}  // namespace analysis_internal

void SetAnalysisHooks(const SimAnalysisHooks* hooks) {
  analysis_internal::g_hooks = hooks;
}

}  // namespace magesim
