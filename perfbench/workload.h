// The interface every benchmark workload implements, and the pieces the
// workloads share: opening a store (optionally through the tracing
// decorators) and running one user transaction with client retries.

#ifndef ODE_PERFBENCH_WORKLOAD_H_
#define ODE_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decorators.h"
#include "odepp/session.h"
#include "span_trace.h"

namespace perfbench {

/// Decorators of a traced run. The env outlives every store opened over
/// it; the storage decorator is owned by the open session's Database.
struct Instruments {
  std::unique_ptr<TracingEnv> env;
  TracingStorageManager* store = nullptr;
};

struct SetupTiming {
  double freeze_s = 0, open_s = 0, populate_s = 0;
};

/// What one user transaction did, as the client saw it.
struct OpResult {
  uint8_t label = 0;  // index into Workload::op_labels()
  bool read_only = false;
  bool tabort = false;  // a trigger action rolled it back: still completed
  uint32_t retries = 0;
  uint64_t user_bytes_written = 0;  // committed object bytes the op wrote
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  virtual bool on_disk() const = 0;
  /// Op kinds, indexed by the label RunOp reports (for the trace).
  virtual std::vector<std::string> op_labels() const = 0;

  /// Builds every client's operation stream from the seed. Runs before
  /// any timing; RunOp only reads the streams.
  virtual void Generate(uint64_t seed) = 0;

  /// Freezes a fresh schema, opens a fresh store under directory `dir`
  /// (through the decorators when `inst` is non-null), and populates it.
  virtual ode::Status Setup(const std::string& dir, Instruments* inst,
                            SetupTiming* timing) = 0;
  /// Closes the store Setup opened, keeping nothing of it.
  virtual ode::Status Teardown() = 0;

  virtual ode::Session* session() = 0;

  /// Runs client `c`'s next user transaction, retries included.
  virtual ode::Status RunOp(int c, OpResult* result) = 0;

  /// Outcome checks after the measured run; closes the store. Returns a
  /// failure naming the first violated check.
  virtual ode::Status Verify() = 0;

  /// Live user object bytes (the application's own encoding) and the
  /// bytes the store holds for them after Verify closed it.
  virtual uint64_t live_user_bytes() const = 0;
  virtual uint64_t stored_bytes() const = 0;
};

std::unique_ptr<Workload> MakeCredCardDurable();
std::unique_ptr<Workload> MakeStatementRead();
std::unique_ptr<Workload> MakeTradingMm();

struct StoreConfig {
  bool disk = false;
  std::string path;  // disk only
  ode::Session::Options options;
};

/// Opens a session over a fresh disk (sync commits, group commit, the
/// default 256-page pool) or main-memory store.
ode::Result<std::unique_ptr<ode::Session>> OpenSession(
    ode::Schema* schema, const StoreConfig& config, Instruments* inst);

/// db file + WAL bytes of a closed disk store.
uint64_t DiskFootprint(const std::string& path);

/// Retries a user transaction this many times on deadlock or lock
/// timeout before counting it failed.
inline constexpr uint32_t kMaxRetries = 64;

/// Runs one user transaction: Begin, `body`, Commit, with the Session
/// calls traced as odepp spans. A trigger tabort (kTransactionAborted
/// from the body or from Commit) completes the transaction; deadlock
/// and lock timeout abort and retry it. Any other error is returned.
template <typename Body>
ode::Status RunUserTxn(ode::Session& s, OpResult* result, Body&& body) {
  for (uint32_t attempt = 0;; ++attempt) {
    ode::Transaction* txn = nullptr;
    {
      ScopedSpan span(SpanName::kBegin);
      auto begun = s.Begin();
      if (!begun.ok()) return begun.status();
      txn = begun.value();
    }
    ode::Status st = body(txn);
    if (st.ok()) {
      ScopedSpan span(SpanName::kCommit);
      st = s.Commit(txn);
      if (st.IsTransactionAborted()) {
        result->tabort = true;
        return ode::Status::OK();
      }
      return st;
    }
    if (st.IsTransactionAborted()) {  // the transaction is already gone
      result->tabort = true;
      return ode::Status::OK();
    }
    {
      ScopedSpan span(SpanName::kAbort);
      ODE_RETURN_NOT_OK(s.Abort(txn));
    }
    if (!(st.IsDeadlock() || st.IsLockTimeout()) || attempt >= kMaxRetries) {
      return st;
    }
    ++result->retries;
  }
}

/// Session::Invoke traced as an odepp span (renamed when a trigger
/// action's tabort rolled the transaction back inside the call).
template <typename Obj, typename Method, typename... Args>
ode::Status TracedInvoke(ode::Session& s, ode::Transaction* txn,
                         ode::PRef<Obj> ref, Method fn, Args&&... args) {
  ScopedSpan span(SpanName::kInvoke);
  ode::Status st = s.Invoke(txn, ref, fn, std::forward<Args>(args)...);
  if (st.IsTransactionAborted()) span.Rename(SpanName::kInvokeTabort);
  return st;
}

template <typename T>
ode::Result<T> TracedLoad(ode::Session& s, ode::Transaction* txn,
                          ode::PRef<T> ref) {
  ScopedSpan span(SpanName::kLoad);
  return s.Load(txn, ref);
}

}  // namespace perfbench

#endif  // ODE_PERFBENCH_WORKLOAD_H_
