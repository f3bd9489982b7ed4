// Volume directory + write fencing (DESIGN.md §15, docs/FLEET.md).
//
// The VolumeDirectory is the fleet's authoritative volume -> (host, epoch)
// map — the piece of control-plane metadata that makes ownership handoffs
// safe. Every attachment of a volume carries the epoch it was granted;
// reassigning the volume (live migration, failover) bumps the epoch, and
// from that instant any store traffic still issued under the old epoch is
// *fenced*: mutations fail with StatusCode::kFenced. A host that was
// wrongly declared dead (partition, stalled heartbeats) can therefore keep
// running against its stale attachment without corrupting the object
// stream — its PUTs bounce, its write cache keeps the data, and the new
// attachment's recover-attach sees a consistent prefix.
//
// In the simulation the directory is a plain map read synchronously at
// operation-issue time; this models a linearizable metadata service (etcd/
// chubby-style) whose lookup latency is negligible next to the data path.
// Reads are deliberately NOT fenced: objects are immutable, so a stale
// reader can only observe data it was already allowed to see.
#ifndef SRC_OBJSTORE_VOLUME_DIRECTORY_H_
#define SRC_OBJSTORE_VOLUME_DIRECTORY_H_

#include <map>
#include <string>

#include "src/objstore/object_store.h"
#include "src/sim/simulator.h"
#include "src/util/status.h"

namespace lsvd {

struct VolumeDirEntry {
  int host = -1;
  uint64_t epoch = 0;
};

class VolumeDirectory {
 public:
  // Registers a new volume on `host`; returns its first epoch (1).
  // The name must be unused.
  uint64_t Register(const std::string& volume, int host);
  // Reassigns the volume to `host` and bumps the epoch; store views fenced
  // to the old epoch observe their mutations failing from now on. Returns
  // the new epoch.
  uint64_t Flip(const std::string& volume, int host);
  // Current epoch, or 0 for unknown volumes.
  uint64_t CurrentEpoch(const std::string& volume) const;
  Result<VolumeDirEntry> Lookup(const std::string& volume) const;
  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, VolumeDirEntry> entries_;
};

// Per-attachment fencing decorator: wraps the shard store view a volume
// attachment writes through, pinning the epoch the attachment was granted.
// Put/Delete check the directory's current epoch at issue time and fail
// with kFenced when stale; Get/GetRange/List/Head pass through unfenced
// (immutable objects). The error is delivered asynchronously through the
// simulator, like every other store completion.
class FencedObjectStore : public ObjectStore {
 public:
  FencedObjectStore(Simulator* sim, ObjectStore* base,
                    const VolumeDirectory* directory, std::string volume,
                    uint64_t epoch)
      : sim_(sim), base_(base), directory_(directory),
        volume_(std::move(volume)), epoch_(epoch) {}

  void Put(const std::string& name, Buffer data, PutCallback done) override;
  void GetRange(const std::string& name, uint64_t offset, uint64_t len,
                GetCallback done) override;
  void Delete(const std::string& name, PutCallback done) override;
  std::vector<std::string> List(const std::string& prefix) const override;
  Result<uint64_t> Head(const std::string& name) const override;

  uint64_t epoch() const { return epoch_; }
  bool fenced() const { return directory_->CurrentEpoch(volume_) != epoch_; }

 private:
  Simulator* sim_;
  ObjectStore* base_;
  const VolumeDirectory* directory_;
  std::string volume_;
  uint64_t epoch_;
};

}  // namespace lsvd

#endif  // SRC_OBJSTORE_VOLUME_DIRECTORY_H_
