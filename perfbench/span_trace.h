// Layer-boundary spans recorded by the benchmark itself, around the
// calls it makes into each layer of the program: the Session API
// (odepp), the StorageManager interface (storage), and the Env file
// interface (device). Nothing inside the program records these spans;
// the storage and device spans come from forwarding decorators (see
// decorators.h).
//
// Each client thread owns one ThreadTrace. Spans nest on a per-thread
// stack, so a span's self time is its duration minus the time its
// children cover. A group-commit leader fsyncs on behalf of its batch on
// its own thread, so every parent/child pair lives on one thread.

#ifndef ODE_PERFBENCH_SPAN_TRACE_H_
#define ODE_PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kOp,  // one user transaction, Begin to the return of Commit (root)
  // odepp: the Session API boundary.
  kBegin,
  kInvoke,
  kInvokeTabort,  // an Invoke whose trigger action ran tabort
  kLoad,
  kCommit,
  kAbort,
  kNew,
  kActivate,
  kIsActive,
  // storage: the StorageManager interface.
  kStorageRead,
  kStorageWrite,
  kStorageAlloc,
  kStorageFree,
  kStorageExists,
  kStorageRoot,
  kStorageBegin,
  kStorageCommit,      // commit that led its batch, or a read-only commit
  kStorageCommitWait,  // group-commit follower: waited on a leader
  kStorageAbort,
  // device: the Env file interface.
  kWalAppend,
  kWalSync,
  kPageRead,
  kPageWrite,
  kPageSync,
  kCount
};

const char* SpanNameStr(SpanName name);

/// One finished span, kept for the Chrome trace export.
struct SpanRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t op;      // user transaction id (thread << 40 | sequence)
  uint32_t id;      // per-thread span id, 1-based
  uint32_t parent;  // 0 for an op root
  uint16_t thread;
  SpanName name;
  uint8_t label;  // op kind, for roots
};

class ThreadTrace {
 public:
  /// Keeps at most `keep_limit` raw spans for export; aggregates cover
  /// every traced span regardless.
  ThreadTrace(uint16_t thread, size_t keep_limit);

  void BeginOp();
  /// Ends the op root, labelled with its op kind; returns its duration
  /// in ns.
  uint64_t EndOp(uint8_t label);

  void Begin();
  /// Ends the innermost open span, recording it under `name` (a span
  /// may learn its kind only on return, e.g. a follower's commit).
  void End(SpanName name);

  void NoteBatchSize(uint32_t size) { batch_sizes_.push_back(size); }

  /// Span times in ns, clamped to 32 bits (4.29 s) to halve the memory a
  /// long traced run holds.
  const std::vector<uint32_t>& durations(SpanName n) const {
    return dur_[static_cast<size_t>(n)];
  }
  /// Self times: recorded for the odepp spans and kStorageCommit only.
  const std::vector<uint32_t>& self_times(SpanName n) const {
    return self_[static_cast<size_t>(n)];
  }
  const std::vector<uint64_t>& batch_sizes() const { return batch_sizes_; }
  const std::vector<SpanRecord>& kept() const { return kept_; }
  /// Summed op wall time and the part of it Session-boundary spans cover.
  uint64_t op_ns() const { return op_ns_; }
  uint64_t covered_ns() const { return covered_ns_; }

 private:
  struct Open {
    uint64_t start;
    uint64_t child_ns;
    uint32_t id;
    uint32_t parent;
  };

  uint16_t thread_;
  size_t keep_limit_;
  bool keeping_ = true;
  uint64_t op_seq_ = 0;
  uint64_t current_op_ = 0;
  uint32_t next_id_ = 1;
  std::vector<Open> stack_;
  std::array<std::vector<uint32_t>, static_cast<size_t>(SpanName::kCount)>
      dur_, self_;
  std::vector<uint64_t> batch_sizes_;
  std::vector<SpanRecord> kept_;
  uint64_t op_ns_ = 0, covered_ns_ = 0;
};

/// The calling thread's trace while it runs a traced op; null otherwise
/// (untraced run, untraced window, or a thread the benchmark does not
/// own), in which case spans cost one thread-local load.
extern thread_local ThreadTrace* tl_trace;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) : trace_(tl_trace), name_(name) {
    if (trace_ != nullptr) trace_->Begin();
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(SpanName name) { name_ = name; }
  ThreadTrace* trace() const { return trace_; }

 private:
  ThreadTrace* trace_;
  SpanName name_;
};

/// Writes every kept span as Chrome trace_event JSON (load it in
/// chrome://tracing or ui.perfetto.dev). Follower commit waits are
/// category "wait". Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const ThreadTrace*>& traces,
                      const std::vector<std::string>& op_labels);

}  // namespace perfbench

#endif  // ODE_PERFBENCH_SPAN_TRACE_H_
