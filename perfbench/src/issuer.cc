#include "perfbench/src/issuer.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <utility>

#include "perfbench/src/trace.h"
#include "src/blockdev/block_device.h"

namespace perfbench {

using lsvd::Buffer;
using lsvd::kBlockSize;
using lsvd::WorkloadOp;

namespace {

constexpr uint64_t kStampBytes = 16;

void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Buffer::IsAllZeros() is exact only for symbolic zero runs: a block that a
// device materialized reads back as a data chunk even when its bytes are 0.
bool ZeroBytes(const Buffer& data) {
  if (data.IsAllZeros()) {
    return true;
  }
  const std::vector<uint8_t> bytes = data.ToBytes();
  return std::all_of(bytes.begin(), bytes.end(),
                     [](uint8_t b) { return b == 0; });
}

}  // namespace

Buffer StampedBlock(uint64_t block, uint64_t version) {
  std::array<uint8_t, kStampBytes> stamp{};
  PutU64(stamp.data(), block);
  PutU64(stamp.data() + 8, version);
  // A short data chunk plus a symbolic zero run keeps memory per written
  // block small everywhere the buffer is shared rather than copied.
  Buffer b = Buffer::FromBytes(stamp);
  b.AppendZeros(kBlockSize - kStampBytes);
  return b;
}

uint64_t Shadow::Issue(uint64_t block) {
  const uint64_t version = version_block_.size();
  version_block_.push_back(block);
  if (issued_[block] == 0) {
    written_.push_back(block);
  }
  issued_[block] = version;
  return version;
}

void Shadow::Ack(uint64_t block, uint64_t version) {
  if (version > acked_[block]) {
    acked_[block] = version;
  }
}

bool Shadow::Check(uint64_t block, uint64_t floor, const Buffer& data) const {
  if (data.size() != kBlockSize) {
    return false;
  }
  std::array<uint8_t, kStampBytes> stamp{};
  data.CopyTo(0, stamp);
  if (ZeroBytes(data)) {
    return floor == 0;
  }
  const uint64_t stamped_block = GetU64(stamp.data());
  const uint64_t version = GetU64(stamp.data() + 8);
  return stamped_block == block && version >= floor &&
         version <= issued_[block] && version < version_block_.size() &&
         version_block_[version] == block &&
         ZeroBytes(data.Slice(kStampBytes, kBlockSize - kStampBytes));
}

void Issuer::Run(lsvd::WorkloadGen gen, uint64_t max_ops, int queue_depth,
                 std::function<void()> done) {
  gen_ = std::move(gen);
  remaining_ = max_ops;
  done_ = std::move(done);
  for (int i = 0; i < queue_depth; i++) {
    IssueNext();
  }
  if (outstanding_ == 0) {  // empty stream: still finish in event context
    sim_->After(0, [this] { Finish(); });
  }
}

PhaseStats Issuer::TakeStats() {
  PhaseStats out = std::move(stats_);
  stats_ = PhaseStats{};
  return out;
}

void Issuer::IssueNext() {
  if (remaining_ == 0) {
    return;
  }
  WorkloadOp op;
  bool more = false;
  {
    ScopedSpan span(SpanName::kWorkloadGen);
    more = gen_(&op);
  }
  if (!more) {
    remaining_ = 0;
    return;
  }
  remaining_--;
  outstanding_++;
  const lsvd::Nanos issued = sim_->now();
  if (stats_.first_issue < 0) {
    stats_.first_issue = issued;
  }
  const uint64_t first_block = op.offset / kBlockSize;
  const uint64_t blocks = op.len / kBlockSize;

  if (op.kind == WorkloadOp::Kind::kWrite) {
    Buffer data;
    std::vector<uint64_t> versions;
    if (shadow_ == nullptr) {
      data = Buffer::Zeros(op.len);
    } else {
      versions.reserve(blocks);
      for (uint64_t i = 0; i < blocks; i++) {
        versions.push_back(shadow_->Issue(first_block + i));
        data.Append(StampedBlock(first_block + i, versions.back()));
      }
    }
    disk_->Write(op.offset, std::move(data),
                 [this, op, issued, first_block,
                  versions = std::move(versions)](lsvd::Status s) {
      if (!s.ok()) {
        stats_.errors++;
      } else {
        stats_.writes++;
        stats_.bytes_written += op.len;
        stats_.write_ns.push_back(sim_->now() - issued);
        for (size_t i = 0; i < versions.size(); i++) {
          shadow_->Ack(first_block + i, versions[i]);
        }
      }
      Complete();
    });
    return;
  }

  std::vector<uint64_t> floors;
  if (shadow_ != nullptr) {
    floors.reserve(blocks);
    for (uint64_t i = 0; i < blocks; i++) {
      floors.push_back(shadow_->acked(first_block + i));
    }
  }
  disk_->Read(op.offset, op.len,
              [this, op, issued, floors = std::move(floors)](
                  lsvd::Result<Buffer> r) {
    if (!r.ok()) {
      stats_.errors++;
    } else {
      stats_.reads++;
      stats_.read_ns.push_back(sim_->now() - issued);
      CheckRead(op.offset, *r, floors);
    }
    Complete();
  });
}

void Issuer::CheckRead(uint64_t offset, const Buffer& data,
                       const std::vector<uint64_t>& floors) {
  if (shadow_ == nullptr) {
    if (!ZeroBytes(data)) {
      stats_.mismatches++;
    }
    return;
  }
  const uint64_t first_block = offset / kBlockSize;
  for (size_t i = 0; i < floors.size(); i++) {
    if (!shadow_->Check(first_block + i, floors[i],
                        data.Slice(i * kBlockSize, kBlockSize))) {
      stats_.mismatches++;
      return;
    }
  }
}

void Issuer::Complete() {
  outstanding_--;
  stats_.last_done = sim_->now();
  IssueNext();
  if (outstanding_ == 0 && remaining_ == 0) {
    Finish();
  }
}

void Issuer::Finish() {
  if (done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done();
  }
}

}  // namespace perfbench
