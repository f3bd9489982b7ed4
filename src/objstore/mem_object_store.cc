#include "src/objstore/mem_object_store.h"

#include <utility>

namespace lsvd {

void MemObjectStore::Put(const std::string& name, Buffer data,
                         PutCallback done) {
  if (drop_puts_ > 0) {
    drop_puts_--;
    return;  // stranded: no object, no ack
  }
  if (objects_.contains(name)) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::InvalidArgument("object exists (objects are immutable)"));
    });
    return;
  }
  objects_[name] = std::move(data);
  sim_->After(0, [done = std::move(done)]() { done(Status::Ok()); });
}

void MemObjectStore::GetRange(const std::string& name, uint64_t offset,
                              uint64_t len, GetCallback done) {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    sim_->After(0, [done = std::move(done), name]() {
      done(Status::NotFound(name));
    });
    return;
  }
  if (offset + len > it->second.size()) {
    sim_->After(0, [done = std::move(done)]() {
      done(Status::OutOfRange("range beyond object size"));
    });
    return;
  }
  Buffer data = it->second.Slice(offset, len);
  sim_->After(0, [done = std::move(done), data = std::move(data)]() mutable {
    done(std::move(data));
  });
}

void MemObjectStore::Delete(const std::string& name, PutCallback done) {
  objects_.erase(name);
  sim_->After(0, [done = std::move(done)]() { done(Status::Ok()); });
}

std::vector<std::string> MemObjectStore::List(
    const std::string& prefix) const {
  std::vector<std::string> names;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    names.push_back(it->first);
  }
  return names;
}

Result<uint64_t> MemObjectStore::Head(const std::string& name) const {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return Status::NotFound(name);
  }
  return it->second.size();
}

}  // namespace lsvd
