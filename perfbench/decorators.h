// Forwarding decorators at the two lower layer boundaries the benchmark
// traces from outside the program:
//
//  * TracingStorageManager wraps the StorageManager handed to
//    Session::OpenWith (the storage layer);
//  * TracingEnv wraps the Env handed to DiskStorageManager::Options::env
//    (the device layer), in the style of FaultInjectionEnv.
//
// Both forward every virtual unchanged, so the traced run executes the
// same program code as the untraced one; they add call counts (always)
// and spans (when the calling thread runs a traced op).

#ifndef ODE_PERFBENCH_DECORATORS_H_
#define ODE_PERFBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"
#include "storage/storage_manager.h"

namespace perfbench {

/// Plain copy of a decorator's counters at one instant.
struct StorageCallCounts {
  uint64_t reads = 0, writes = 0, allocs = 0;
  // Commits that rode a group-commit batch, as its leader or a follower.
  uint64_t leader_commits = 0, follower_commits = 0;
};

class TracingStorageManager final : public ode::StorageManager {
 public:
  explicit TracingStorageManager(std::unique_ptr<ode::StorageManager> inner)
      : inner_(std::move(inner)) {}

  ode::Status Open() override { return inner_->Open(); }
  ode::Status Close() override { return inner_->Close(); }
  ode::Result<ode::Oid> Allocate(ode::TxnId txn, ode::Slice data) override;
  ode::Status Read(ode::TxnId txn, ode::Oid oid,
                   std::vector<char>* out) override;
  ode::Status Write(ode::TxnId txn, ode::Oid oid, ode::Slice data) override;
  ode::Status Free(ode::TxnId txn, ode::Oid oid) override;
  bool Exists(ode::TxnId txn, ode::Oid oid) override;
  ode::Status SetRoot(ode::TxnId txn, const std::string& name,
                      ode::Oid oid) override;
  ode::Result<ode::Oid> GetRoot(ode::TxnId txn,
                                const std::string& name) override;
  ode::Status BeginTxn(ode::TxnId txn) override;
  ode::Status CommitTxn(ode::TxnId txn) override;
  ode::Status AbortTxn(ode::TxnId txn) override;
  ode::Status Checkpoint() override { return inner_->Checkpoint(); }
  ode::StorageStats stats() const override { return inner_->stats(); }
  CommitBatchInfo LastCommitBatch() const override {
    return inner_->LastCommitBatch();
  }
  ode::Result<ode::ScrubReport> VerifyIntegrity() override {
    return inner_->VerifyIntegrity();
  }
  void BindMetrics(ode::MetricsRegistry* registry) override {
    inner_->BindMetrics(registry);
  }
  void BindTracer(ode::Tracer* tracer) override { inner_->BindTracer(tracer); }

  StorageCallCounts counts() const;

 private:
  std::unique_ptr<ode::StorageManager> inner_;
  std::atomic<uint64_t> reads_{0}, writes_{0}, allocs_{0},
      leader_commits_{0}, follower_commits_{0};
};

/// Plain copy of the device counters at one instant.
struct DeviceCounts {
  uint64_t wal_bytes = 0, wal_syncs = 0;
  uint64_t page_read_bytes = 0, page_write_bytes = 0;
};

/// Wraps `base` (not owned). Append-only files are the WAL; random
/// read/write files are the page file. Must outlive every file it opens.
class TracingEnv final : public ode::Env {
 public:
  explicit TracingEnv(ode::Env* base) : base_(base) {}

  ode::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<ode::WritableFile>* out) override;
  ode::Status NewRandomRWFile(
      const std::string& path,
      std::unique_ptr<ode::RandomRWFile>* out) override;
  ode::Status ReadFileToString(const std::string& path,
                               std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  ode::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  ode::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  ode::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  ode::Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  void SleepMicros(uint64_t micros) override { base_->SleepMicros(micros); }
  void BindMetrics(ode::MetricsRegistry* registry) override {
    base_->BindMetrics(registry);
  }

  DeviceCounts counts() const;

  // Bumped by the file wrappers.
  std::atomic<uint64_t> wal_bytes{0}, wal_syncs{0};
  std::atomic<uint64_t> page_read_bytes{0}, page_write_bytes{0};

 private:
  ode::Env* base_;
};

}  // namespace perfbench

#endif  // ODE_PERFBENCH_DECORATORS_H_
