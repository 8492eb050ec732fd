#ifndef SDBENC_UTIL_LOCK_ORDER_H_
#define SDBENC_UTIL_LOCK_ORDER_H_

// Runtime lock-order validator (DESIGN §17).
//
// Every ranked sdbenc::Mutex participates: a thread-local stack records
// the ranked locks the current thread holds, and a blocking acquire of a
// lock whose rank is <= the rank of any lock already held aborts the
// process, printing the acquiring lock, the conflicting lock and the full
// held stack. Catching the *potential* inversion on every individual
// acquisition — rather than the actual deadlock, which needs two threads
// to interleave just so — is what makes a single-threaded unit test able
// to prove the hierarchy, and what lets one CI run reject an ordering bug
// that TSan's happens-before engine would only flag if the schedule
// actually crossed.
//
// Rules enforced at every blocking acquire of a ranked lock:
//   - rank < any held rank  -> inversion (cycle with the documented order)
//   - rank == any held rank -> same-rank cycle (two stripes, two shards;
//     same object twice is a recursive self-deadlock)
// TryLock never blocks and therefore cannot complete a deadlock cycle by
// itself, so a *successful* try-acquire is pushed without checking; the
// held entry still constrains every later blocking acquire.
//
// Unranked locks (rank 0, the default Mutex constructor) are invisible to
// the validator: short-lived local mutexes (ParallelFor join contexts,
// test scaffolding) need no global position.
//
// Compiled out in release builds via the SDBENC_METRICS-style flag
// pattern: -DSDBENC_LOCK_ORDER=0/1 overrides; the default follows NDEBUG.
// The ctest suite and the TSan/crash-recovery CI jobs run with it ON.

#include <cstdint>

#if !defined(SDBENC_LOCK_ORDER)
#if defined(NDEBUG)
#define SDBENC_LOCK_ORDER 0
#else
#define SDBENC_LOCK_ORDER 1
#endif
#endif

namespace sdbenc {

// The repo-wide lock hierarchy (DESIGN §17 holds the prose table).
// rank(A) < rank(B) means A may be held while B is acquired, never the
// reverse. Gaps leave room for new locks without renumbering.
namespace lockrank {

inline constexpr uint32_t kUnranked = 0;

// -- network front end (net/server) ---------------------------------------
inline constexpr uint32_t kServerConnOut = 8;     // Connection::out_mu
inline constexpr uint32_t kServerStuck = 12;      // Server::stuck_mu_
inline constexpr uint32_t kServerPending = 16;    // Server::pending_mu_
inline constexpr uint32_t kServerTenantDb = 24;   // TenantState::db_mu
inline constexpr uint32_t kServerTenantAudit = 32;  // TenantState::audit_mu

// -- thread pool -----------------------------------------------------------
inline constexpr uint32_t kPoolQueue = 56;        // ThreadPool::mu_

// -- storage ---------------------------------------------------------------
inline constexpr uint32_t kStorageMeta = 68;      // engines' meta_mu_
inline constexpr uint32_t kStorageStripe = 76;    // per-stripe latches
inline constexpr uint32_t kStorageCheckpoint = 84;  // FileEngine::wal_mu_
inline constexpr uint32_t kWal = 92;              // Wal::mu_
inline constexpr uint32_t kAuditLog = 96;         // AuditLog::mu_

// -- decrypted-block cache -------------------------------------------------
inline constexpr uint32_t kCacheShard = 100;      // per-shard LRU latches
inline constexpr uint32_t kCacheObserver = 108;   // wipe-observer hook

// -- observability (recordable under any lock above) -----------------------
inline constexpr uint32_t kTraceShard = 116;      // Tracer ring shards
inline constexpr uint32_t kTraceActive = 120;     // ActiveTrace::mu_
inline constexpr uint32_t kSlowQueryLog = 124;    // SlowQueryLog::mu_
inline constexpr uint32_t kMetricsRegistry = 132;  // MetricsRegistry::mu_

}  // namespace lockrank

namespace lock_order {

#if SDBENC_LOCK_ORDER

/// Binds `name` to `rank` in the global registry. Re-registering the same
/// (name, rank) pair is idempotent — every stripe latch shares one name —
/// but the same name at two different ranks aborts: one name, one position
/// in the hierarchy.
void Register(uint32_t rank, const char* name);

/// Pre-acquire check for a *blocking* lock: aborts on rank inversion or
/// same-rank cycle against the calling thread's held stack, then pushes.
/// Call before the underlying lock() so the report fires instead of the
/// deadlock. No-op for rank 0.
void OnAcquire(const void* mu, uint32_t rank, const char* name);

/// Records a *successful* try-acquire (no check: a non-blocking acquire
/// cannot complete a deadlock cycle). No-op for rank 0.
void OnTryAcquired(const void* mu, uint32_t rank, const char* name);

/// Pops `mu` from the held stack (searched from the top: out-of-LIFO
/// release is legal). Unknown pointers are ignored (rank 0 is never
/// pushed).
void OnRelease(const void* mu);

/// The calling thread's current ranked-lock depth (tests).
int HeldDepth();

#else  // !SDBENC_LOCK_ORDER

inline void Register(uint32_t, const char*) {}
inline void OnAcquire(const void*, uint32_t, const char*) {}
inline void OnTryAcquired(const void*, uint32_t, const char*) {}
inline void OnRelease(const void*) {}
inline int HeldDepth() { return 0; }

#endif  // SDBENC_LOCK_ORDER

}  // namespace lock_order
}  // namespace sdbenc

#endif  // SDBENC_UTIL_LOCK_ORDER_H_
