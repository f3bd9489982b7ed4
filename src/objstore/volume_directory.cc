#include "src/objstore/volume_directory.h"

#include <cassert>
#include <utility>

namespace lsvd {

uint64_t VolumeDirectory::Register(const std::string& volume, int host) {
  assert(!entries_.contains(volume) && "volume already registered");
  entries_[volume] = VolumeDirEntry{host, 1};
  return 1;
}

uint64_t VolumeDirectory::Flip(const std::string& volume, int host) {
  auto it = entries_.find(volume);
  assert(it != entries_.end() && "flip of unregistered volume");
  it->second.host = host;
  it->second.epoch++;
  return it->second.epoch;
}

uint64_t VolumeDirectory::CurrentEpoch(const std::string& volume) const {
  auto it = entries_.find(volume);
  return it == entries_.end() ? 0 : it->second.epoch;
}

Result<VolumeDirEntry> VolumeDirectory::Lookup(
    const std::string& volume) const {
  auto it = entries_.find(volume);
  if (it == entries_.end()) {
    return Status::NotFound(volume);
  }
  return it->second;
}

void FencedObjectStore::Put(const std::string& name, Buffer data,
                            PutCallback done) {
  if (fenced()) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::Fenced("stale attachment epoch"));
    });
    return;
  }
  base_->Put(name, std::move(data), std::move(done));
}

void FencedObjectStore::GetRange(const std::string& name, uint64_t offset,
                                 uint64_t len, GetCallback done) {
  base_->GetRange(name, offset, len, std::move(done));
}

void FencedObjectStore::Delete(const std::string& name, PutCallback done) {
  if (fenced()) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::Fenced("stale attachment epoch"));
    });
    return;
  }
  base_->Delete(name, std::move(done));
}

std::vector<std::string> FencedObjectStore::List(
    const std::string& prefix) const {
  return base_->List(prefix);
}

Result<uint64_t> FencedObjectStore::Head(const std::string& name) const {
  return base_->Head(name);
}

}  // namespace lsvd
