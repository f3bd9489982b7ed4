// Unit tests for the hot-path building blocks introduced by the CPU
// overhaul: InlineFn (small-buffer event callable) and SmallVector
// (inline-storage segment output).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/util/inline_fn.h"
#include "src/util/small_vector.h"

namespace lsvd {
namespace {

using Fn64 = InlineFn<void(), 64>;

TEST(InlineFn, SmallCaptureStaysInline) {
  int hits = 0;
  int* p = &hits;
  Fn64 fn([p] { (*p)++; });
  EXPECT_TRUE(fn.is_inline());
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, OversizedCaptureFallsBackToHeap) {
  char big[128] = {0};
  big[0] = 7;
  int out = 0;
  Fn64 fn([big, &out] { out = big[0]; });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(out, 7);
}

TEST(InlineFn, MoveTransfersCallableAndOwnership) {
  auto token = std::make_shared<int>(41);
  std::weak_ptr<int> weak = token;
  int got = 0;
  Fn64 a([token, &got] { got = *token + 1; });
  token.reset();
  EXPECT_FALSE(weak.expired());

  Fn64 b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(got, 42);

  Fn64 c;
  c = std::move(b);
  c();
  EXPECT_EQ(got, 42);

  c = Fn64();  // destroying the callable releases its captures
  EXPECT_TRUE(weak.expired());
}

TEST(InlineFn, HeapCallableMoveAndDestroy) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> weak = token;
  char pad[100] = {0};
  Fn64 a([token, pad] { (void)pad; });
  token.reset();
  EXPECT_FALSE(a.is_inline());
  Fn64 b(std::move(a));
  EXPECT_FALSE(weak.expired());
  b = Fn64([] {});
  EXPECT_TRUE(weak.expired());
}

TEST(InlineFn, AcceptsStdFunction) {
  int hits = 0;
  std::function<void()> f = [&hits] { hits++; };
  Fn64 fn(f);
  EXPECT_TRUE(fn.is_inline());  // std::function is 32 bytes, fits in 64
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, MutableLambdaKeepsStateAcrossCalls) {
  std::vector<int> seen;
  Fn64 fn([n = 0, &seen]() mutable { seen.push_back(n++); });
  fn();
  fn();
  fn();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

TEST(SmallVector, StaysInlineUpToN) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; i++) {
    v.push_back(i);
  }
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
}

TEST(SmallVector, ClearKeepsStorageWarm) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 10; i++) {
    v.push_back(i);
  }
  const size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);  // heap storage is retained for reuse
}

TEST(SmallVector, NonTrivialElements) {
  SmallVector<std::string, 2> v;
  v.push_back("alpha");
  v.emplace_back(100, 'x');
  v.push_back("omega");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "alpha");
  EXPECT_EQ(v[1], std::string(100, 'x'));
  EXPECT_EQ(v.back(), "omega");

  SmallVector<std::string, 2> copy(v);
  EXPECT_EQ(copy, v);
  SmallVector<std::string, 2> moved(std::move(v));
  EXPECT_EQ(moved, copy);

  copy = moved;
  EXPECT_EQ(copy.size(), 3u);
  moved = std::move(copy);
  EXPECT_EQ(moved.size(), 3u);
}

TEST(SmallVector, MoveFromInlineAndHeap) {
  SmallVector<std::unique_ptr<int>, 2> inline_v;
  inline_v.push_back(std::make_unique<int>(1));
  SmallVector<std::unique_ptr<int>, 2> a(std::move(inline_v));
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(*a[0], 1);

  SmallVector<std::unique_ptr<int>, 2> heap_v;
  for (int i = 0; i < 5; i++) {
    heap_v.push_back(std::make_unique<int>(i));
  }
  SmallVector<std::unique_ptr<int>, 2> b;
  b = std::move(heap_v);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(*b[4], 4);
}

// Regression: push_back(v[i]) must work when the push triggers growth, as
// it does for std::vector. The old Grow() destroyed (and, when heap-backed,
// freed) the source element before the new one was constructed.
TEST(SmallVector, PushBackOfOwnElementDuringGrowth) {
  // Inline -> heap transition: the argument lives in inline_ storage.
  SmallVector<std::string, 2> v;
  v.push_back(std::string(64, 'a'));  // long enough to defeat SSO
  v.push_back(std::string(64, 'b'));
  v.push_back(v[0]);  // grows; source is inline element 0
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], std::string(64, 'a'));
  EXPECT_EQ(v[0], std::string(64, 'a'));

  // Heap -> heap transition: the argument lives in the freed allocation.
  while (v.size() < v.capacity()) {
    v.push_back(std::string(64, 'c'));
  }
  const std::string want = v.back();
  v.push_back(v.back());  // grows; source is in the old heap block
  EXPECT_EQ(v.back(), want);

  // Same via emplace_back with a reference argument.
  while (v.size() < v.capacity()) {
    v.push_back(std::string(64, 'd'));
  }
  v.emplace_back(v[1]);
  EXPECT_EQ(v.back(), std::string(64, 'b'));
}

TEST(SmallVector, ReserveAvoidsLaterGrowth) {
  SmallVector<int, 2> v;
  v.reserve(100);
  EXPECT_GE(v.capacity(), 100u);
  const int* data = v.begin();
  for (int i = 0; i < 100; i++) {
    v.push_back(i);
  }
  EXPECT_EQ(v.begin(), data);  // no reallocation happened
}

}  // namespace
}  // namespace lsvd
