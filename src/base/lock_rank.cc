#include "base/lock_rank.h"

#include <cstdio>
#include <cstdlib>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define CQA_HAVE_EXECINFO 1
#endif
#endif

namespace cqa {

const char* ToString(LockRank rank) {
  switch (rank) {
    case LockRank::kSolverInternal:
      return "kSolverInternal";
    case LockRank::kVerdictShard:
      return "kVerdictShard";
    case LockRank::kComponents:
      return "kComponents";
    case LockRank::kWal:
      return "kWal";
    case LockRank::kDbEntry:
      return "kDbEntry";
    case LockRank::kServiceRegistry:
      return "kServiceRegistry";
  }
  return "<bad LockRank>";
}

namespace lock_rank_internal {
namespace {

constexpr int kMaxHeld = 16;    // Deeper nesting is itself a bug.
constexpr int kMaxFrames = 32;  // Acquisition-stack capture depth.

/// One held (or pending) lock acquisition, with the stack that made it.
struct HeldLock {
  LockRank rank = LockRank::kSolverInternal;
  const void* mutex = nullptr;
  void* frames[kMaxFrames];
  int num_frames = 0;
};

/// The per-thread stack of held ranks. A plain thread_local POD-ish
/// struct: no heap allocation on the lock path.
struct ThreadLockStack {
  HeldLock held[kMaxHeld];
  int depth = 0;
};

thread_local ThreadLockStack tls_stack;

void CaptureStack(HeldLock* held) {
#if defined(CQA_HAVE_EXECINFO)
  held->num_frames = backtrace(held->frames, kMaxFrames);
#else
  held->num_frames = 0;
#endif
}

void PrintStack(const HeldLock& held) {
#if defined(CQA_HAVE_EXECINFO)
  if (held.num_frames > 0) {
    backtrace_symbols_fd(const_cast<void* const*>(held.frames),
                         held.num_frames, /*fd=*/2);
    return;
  }
#endif
  std::fprintf(stderr, "  <no acquisition stack captured>\n");
}

[[noreturn]] void RankInversion(const HeldLock& pending,
                                const HeldLock& blocker) {
  std::fprintf(stderr,
               "lock-rank inversion: acquiring %s (mutex %p) while holding "
               "%s (mutex %p)\n",
               ToString(pending.rank), pending.mutex, ToString(blocker.rank),
               blocker.mutex);
  std::fprintf(stderr, "acquisition stack of the violating lock (%s):\n",
               ToString(pending.rank));
  PrintStack(pending);
  std::fprintf(stderr, "acquisition stack of the held lock (%s):\n",
               ToString(blocker.rank));
  PrintStack(blocker);
  std::abort();
}

}  // namespace

void PushRank(LockRank rank, const void* mutex) {
  ThreadLockStack& stack = tls_stack;
  if (stack.depth >= kMaxHeld) {
    std::fprintf(stderr,
                 "lock-rank: thread holds %d ranked locks at once "
                 "(acquiring %s, mutex %p) — runaway nesting\n",
                 stack.depth, ToString(rank), mutex);
    std::abort();
  }
  HeldLock& pending = stack.held[stack.depth];
  pending.rank = rank;
  pending.mutex = mutex;
  CaptureStack(&pending);
  // Strictly-decreasing discipline: every held rank must be above the one
  // being acquired. Equal ranks never nest (same-rank locks — two
  // solvers' locks, two solver-map locks — are taken one at a time by
  // design), so equality is an inversion too.
  for (int i = 0; i < stack.depth; ++i) {
    if (static_cast<int>(stack.held[i].rank) <= static_cast<int>(rank)) {
      RankInversion(pending, stack.held[i]);
    }
  }
  ++stack.depth;
}

void PopRank(LockRank rank, const void* mutex) {
  ThreadLockStack& stack = tls_stack;
  // Match by address from the top: unlock order is normally LIFO, but a
  // manually managed unique_lock may release out of order.
  for (int i = stack.depth - 1; i >= 0; --i) {
    if (stack.held[i].mutex != mutex) continue;
    for (int j = i; j + 1 < stack.depth; ++j) stack.held[j] = stack.held[j + 1];
    --stack.depth;
    return;
  }
  std::fprintf(stderr,
               "lock-rank: releasing %s (mutex %p) this thread does not "
               "hold\n",
               ToString(rank), mutex);
  std::abort();
}

int HeldDepth() { return tls_stack.depth; }

}  // namespace lock_rank_internal
}  // namespace cqa
