#include "decorators.h"

#include "span_trace.h"

namespace perfbench {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

class TracingWritableFile final : public ode::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<ode::WritableFile> inner,
                      TracingEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  ode::Status Append(ode::Slice data) override {
    ScopedSpan span(SpanName::kWalAppend);
    env_->wal_bytes.fetch_add(data.size(), kRelaxed);
    return inner_->Append(data);
  }
  ode::Status Flush() override { return inner_->Flush(); }
  ode::Status Sync() override {
    ScopedSpan span(SpanName::kWalSync);
    env_->wal_syncs.fetch_add(1, kRelaxed);
    return inner_->Sync();
  }
  ode::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<ode::WritableFile> inner_;
  TracingEnv* env_;
};

class TracingRWFile final : public ode::RandomRWFile {
 public:
  TracingRWFile(std::unique_ptr<ode::RandomRWFile> inner, TracingEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  ode::Status ReadAt(uint64_t offset, size_t n, char* scratch) override {
    ScopedSpan span(SpanName::kPageRead);
    env_->page_read_bytes.fetch_add(n, kRelaxed);
    return inner_->ReadAt(offset, n, scratch);
  }
  ode::Status WriteAt(uint64_t offset, ode::Slice data) override {
    ScopedSpan span(SpanName::kPageWrite);
    env_->page_write_bytes.fetch_add(data.size(), kRelaxed);
    return inner_->WriteAt(offset, data);
  }
  ode::Status Sync() override {
    ScopedSpan span(SpanName::kPageSync);
    return inner_->Sync();
  }
  ode::Status Close() override { return inner_->Close(); }
  ode::Result<uint64_t> Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<ode::RandomRWFile> inner_;
  TracingEnv* env_;
};

}  // namespace

ode::Result<ode::Oid> TracingStorageManager::Allocate(ode::TxnId txn,
                                                      ode::Slice data) {
  ScopedSpan span(SpanName::kStorageAlloc);
  allocs_.fetch_add(1, kRelaxed);
  return inner_->Allocate(txn, data);
}

ode::Status TracingStorageManager::Read(ode::TxnId txn, ode::Oid oid,
                                        std::vector<char>* out) {
  ScopedSpan span(SpanName::kStorageRead);
  reads_.fetch_add(1, kRelaxed);
  return inner_->Read(txn, oid, out);
}

ode::Status TracingStorageManager::Write(ode::TxnId txn, ode::Oid oid,
                                         ode::Slice data) {
  ScopedSpan span(SpanName::kStorageWrite);
  writes_.fetch_add(1, kRelaxed);
  return inner_->Write(txn, oid, data);
}

ode::Status TracingStorageManager::Free(ode::TxnId txn, ode::Oid oid) {
  ScopedSpan span(SpanName::kStorageFree);
  return inner_->Free(txn, oid);
}

bool TracingStorageManager::Exists(ode::TxnId txn, ode::Oid oid) {
  ScopedSpan span(SpanName::kStorageExists);
  return inner_->Exists(txn, oid);
}

ode::Status TracingStorageManager::SetRoot(ode::TxnId txn,
                                           const std::string& name,
                                           ode::Oid oid) {
  ScopedSpan span(SpanName::kStorageRoot);
  return inner_->SetRoot(txn, name, oid);
}

ode::Result<ode::Oid> TracingStorageManager::GetRoot(
    ode::TxnId txn, const std::string& name) {
  ScopedSpan span(SpanName::kStorageRoot);
  return inner_->GetRoot(txn, name);
}

ode::Status TracingStorageManager::BeginTxn(ode::TxnId txn) {
  ScopedSpan span(SpanName::kStorageBegin);
  return inner_->BeginTxn(txn);
}

ode::Status TracingStorageManager::CommitTxn(ode::TxnId txn) {
  ScopedSpan span(SpanName::kStorageCommit);
  // LastCommitBatch is the calling thread's most recent batch; a commit
  // that rode no batch (read-only: nothing reaches the log) leaves it
  // unchanged.
  const uint64_t prior_batch = inner_->LastCommitBatch().batch_id;
  ode::Status st = inner_->CommitTxn(txn);
  const CommitBatchInfo batch = inner_->LastCommitBatch();
  if (st.ok() && batch.batch_id != prior_batch) {
    // A follower's whole commit call is a wait on its batch leader's
    // WAL append, fsync and page apply: report it as wait, not as
    // storage self time.
    if (!batch.leader) {
      follower_commits_.fetch_add(1, kRelaxed);
      span.Rename(SpanName::kStorageCommitWait);
    } else {
      leader_commits_.fetch_add(1, kRelaxed);
      if (span.trace() != nullptr) {
        span.trace()->NoteBatchSize(batch.batch_size);
      }
    }
  }
  return st;
}

ode::Status TracingStorageManager::AbortTxn(ode::TxnId txn) {
  ScopedSpan span(SpanName::kStorageAbort);
  return inner_->AbortTxn(txn);
}

StorageCallCounts TracingStorageManager::counts() const {
  StorageCallCounts c;
  c.reads = reads_.load(kRelaxed);
  c.writes = writes_.load(kRelaxed);
  c.allocs = allocs_.load(kRelaxed);
  c.leader_commits = leader_commits_.load(kRelaxed);
  c.follower_commits = follower_commits_.load(kRelaxed);
  return c;
}

ode::Status TracingEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<ode::WritableFile>* out) {
  std::unique_ptr<ode::WritableFile> inner;
  ODE_RETURN_NOT_OK(base_->NewWritableFile(path, &inner));
  *out = std::make_unique<TracingWritableFile>(std::move(inner), this);
  return ode::Status::OK();
}

ode::Status TracingEnv::NewRandomRWFile(
    const std::string& path, std::unique_ptr<ode::RandomRWFile>* out) {
  std::unique_ptr<ode::RandomRWFile> inner;
  ODE_RETURN_NOT_OK(base_->NewRandomRWFile(path, &inner));
  *out = std::make_unique<TracingRWFile>(std::move(inner), this);
  return ode::Status::OK();
}

DeviceCounts TracingEnv::counts() const {
  DeviceCounts c;
  c.wal_bytes = wal_bytes.load(kRelaxed);
  c.wal_syncs = wal_syncs.load(kRelaxed);
  c.page_read_bytes = page_read_bytes.load(kRelaxed);
  c.page_write_bytes = page_write_bytes.load(kRelaxed);
  return c;
}

}  // namespace perfbench
