// In-memory object store test double: zero latency, optional fault hooks.
#ifndef SRC_OBJSTORE_MEM_OBJECT_STORE_H_
#define SRC_OBJSTORE_MEM_OBJECT_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "src/objstore/object_store.h"
#include "src/sim/simulator.h"

namespace lsvd {

class MemObjectStore : public ObjectStore {
 public:
  explicit MemObjectStore(Simulator* sim) : sim_(sim) {}

  void Put(const std::string& name, Buffer data, PutCallback done) override;
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override;
  void Delete(const std::string& name, PutCallback done) override;
  std::vector<std::string> List(const std::string& prefix) const override;
  Result<uint64_t> Head(const std::string& name) const override;

  // --- fault injection ---
  // When set, the next `n` Puts are "stranded": the client never gets an
  // acknowledgement and the object is not created (models a crash with PUTs
  // in flight).
  void DropNextPuts(int n) { drop_puts_ = n; }
  // Removes an object directly (simulating loss), bypassing Delete.
  void Corrupt(const std::string& name) { objects_.erase(name); }

  size_t object_count() const { return objects_.size(); }

 private:
  Simulator* sim_;
  std::map<std::string, Buffer> objects_;
  int drop_puts_ = 0;
};

}  // namespace lsvd

#endif  // SRC_OBJSTORE_MEM_OBJECT_STORE_H_
