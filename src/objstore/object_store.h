// S3-like object store interface: immutable named objects.
//
// This is the only contract the LSVD backend needs from remote storage
// (paper §3): whole-object PUT (atomic), GET and range GET, LIST by prefix,
// DELETE. Objects are immutable once created; LSVD encodes log order in the
// object *name* (volume prefix + sequence number).
//
// A deployment may expose several independent ObjectStore instances (e.g.
// separate clusters or placement groups); a sharded LSVD volume (DESIGN.md
// §9) stripes its sequence-numbered stream round-robin across them. Stores
// need no knowledge of each other — each shard simply sees a subsequence of
// names in the shared volume namespace.
#ifndef SRC_OBJSTORE_OBJECT_STORE_H_
#define SRC_OBJSTORE_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/util/buffer.h"
#include "src/util/status.h"

namespace lsvd {

class ObjectStore {
 public:
  using PutCallback = std::function<void(Status)>;
  using GetCallback = std::function<void(Result<Buffer>)>;

  virtual ~ObjectStore() = default;

  // Atomically creates `name` with `data`. Overwriting an existing name is
  // an error (objects are immutable).
  virtual void Put(const std::string& name, Buffer data,
                   PutCallback done) = 0;

  // Reads [offset, offset+len) of the object.
  virtual void GetRange(const std::string& name, uint64_t offset,
                        uint64_t len, GetCallback done) = 0;

  // Reads the whole object: a range GET over the size `Head` reports (a
  // missing object reads as an empty range, which GetRange reports
  // NotFound).
  virtual void Get(const std::string& name, GetCallback done) {
    const auto size = Head(name);
    GetRange(name, 0, size.ok() ? *size : 0, std::move(done));
  }

  virtual void Delete(const std::string& name, PutCallback done) = 0;

  // Control-plane: names with the given prefix, in lexicographic order.
  // Synchronous (used during recovery and by the garbage collector; its cost
  // is negligible next to data movement).
  virtual std::vector<std::string> List(const std::string& prefix) const = 0;

  // Size of an existing object, or NotFound.
  virtual Result<uint64_t> Head(const std::string& name) const = 0;
};

}  // namespace lsvd

#endif  // SRC_OBJSTORE_OBJECT_STORE_H_
