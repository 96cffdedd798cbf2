#include "workload.h"

#include <filesystem>

#include "storage/disk_storage_manager.h"
#include "storage/mm_storage_manager.h"

namespace perfbench {

ode::Result<std::unique_ptr<ode::Session>> OpenSession(
    ode::Schema* schema, const StoreConfig& config, Instruments* inst) {
  std::unique_ptr<ode::StorageManager> store;
  if (config.disk) {
    ode::DiskStorageManager::Options dopts;  // sync_commits, group_commit on
    if (inst != nullptr) dopts.env = inst->env.get();
    store = std::make_unique<ode::DiskStorageManager>(config.path, dopts);
  } else {
    store = std::make_unique<ode::MMStorageManager>();
  }
  if (inst != nullptr) {
    auto traced = std::make_unique<TracingStorageManager>(std::move(store));
    inst->store = traced.get();
    store = std::move(traced);
  }
  return ode::Session::OpenWith(std::move(store), schema, config.options);
}

uint64_t DiskFootprint(const std::string& path) {
  uint64_t total = 0;
  for (const std::string& p : {path, path + ".wal"}) {
    std::error_code ec;
    const uint64_t size = std::filesystem::file_size(p, ec);
    if (!ec) total += size;
  }
  return total;
}

}  // namespace perfbench
