#include "src/objstore/retry.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace lsvd {
namespace {

// kUnavailable is transient; kInvalidArgument answers a PUT whose name
// already exists, which the next attempt's `Head` resolves.
bool IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kInvalidArgument;
}

// Backoff before retry number `attempt` (>= 1); draws one jitter sample.
Nanos RetryBackoff(const RetryPolicy& p, int attempt, Rng& rng) {
  double backoff = static_cast<double>(p.initial_backoff);
  for (int i = 1; i < attempt &&
                  backoff < static_cast<double>(p.max_backoff); i++) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, static_cast<double>(p.max_backoff));
  const double factor = 1.0 + p.jitter * (2.0 * rng.NextDouble() - 1.0);
  return static_cast<Nanos>(std::max(0.0, backoff * factor));
}

StatusCode CodeOf(const Status& s) { return s.code(); }
StatusCode CodeOf(const Result<Buffer>& r) {
  return r.ok() ? StatusCode::kOk : r.status().code();
}

// What a request without a reconcile step (everything but PUT) holds.
struct NoReconcile {};

// One logical request: its attempts, backoff sleeps and timeout races. It
// lives on the heap, owned by whichever answer, timer or sleep is pending.
// It holds the owner's context by pointer and its own copy of `alive`, and
// touches the context only while `*alive` is true.
//
// `send` sends one attempt. `reconcile` (PUT only) runs before each retry
// and calls back with true when an earlier attempt turns out to have landed.
template <typename R, typename SendFn, typename ReconcileFn>
struct Request
    : std::enable_shared_from_this<Request<R, SendFn, ReconcileFn>> {
  using Done = std::function<void(R)>;
  Request(const RetryContext& c, Nanos t, SendFn s, ReconcileFn r, Done d)
      : ctx(&c), alive(c.alive), timeout(t), send(std::move(s)),
        reconcile(std::move(r)), done(std::move(d)) {}

  void Attempt() {
    if constexpr (std::is_same_v<ReconcileFn, NoReconcile>) {
      Send();
    } else {
      if (failed == 0) {
        Send();
        return;
      }
      reconcile([self = this->shared_from_this()](bool landed) {
        if (*self->alive) {
          landed ? self->done(Status::Ok()) : self->Send();
        }
      });
    }
  }

  // Whichever of the current attempt's answer and its timeout comes first
  // settles it; the other, and any answer of an earlier attempt, is
  // ignored.
  bool Settle(uint32_t attempt) {
    if (attempt != attempts || settled) {
      return false;
    }
    settled = true;
    return true;
  }

  void Send() {
    const uint32_t attempt = ++attempts;
    settled = false;
    if (timeout > 0) {
      ctx->sim->After(timeout, [self = this->shared_from_this(), attempt] {
        if (*self->alive && self->Settle(attempt)) {
          if (self->ctx->on_timeout) {
            self->ctx->on_timeout();
          }
          self->Failed(Status::Unavailable("object-store request timed out"));
        }
      });
    }
    send([self = this->shared_from_this(), attempt](R r) {
      if (!*self->alive || !self->Settle(attempt)) {
        return;
      }
      const StatusCode code = CodeOf(r);
      if (code == StatusCode::kOk || !IsRetryable(code)) {
        self->done(std::move(r));
      } else {
        self->Failed(std::move(r));
      }
    });
  }

  void Failed(R r) {
    if (++failed >= ctx->policy->max_attempts) {
      done(std::move(r));
      return;
    }
    if (ctx->on_retry) {
      ctx->on_retry();
    }
    ctx->sim->After(RetryBackoff(*ctx->policy, failed, *ctx->rng),
                    [self = this->shared_from_this()] {
                      if (*self->alive) {
                        self->Attempt();
                      }
                    });
  }

  const RetryContext* ctx;
  std::shared_ptr<bool> alive;
  Nanos timeout;  // per attempt; 0 = none
  SendFn send;
  ReconcileFn reconcile;
  Done done;
  int failed = 0;         // failed attempts so far
  uint32_t attempts = 0;  // attempts sent so far; the last is current
  bool settled = false;   // whether the current attempt has settled
};

template <typename R, typename SendFn, typename ReconcileFn = NoReconcile>
void Run(const RetryContext& ctx, Nanos timeout, SendFn send,
         std::function<void(R)> done, ReconcileFn reconcile = {}) {
  std::make_shared<Request<R, SendFn, ReconcileFn>>(
      ctx, timeout, std::move(send), std::move(reconcile), std::move(done))
      ->Attempt();
}

}  // namespace

void RetryPut(const RetryContext& ctx, std::string name, Buffer data,
              std::function<void(Status)> done) {
  ObjectStore* store = ctx.store;
  auto reconcile = [store, name, size = data.size()](auto then) {
    // If the delete fails, the re-PUT fails on the existing name and is
    // retried.
    const auto have = store->Head(name);
    if (!have.ok() || *have == size) {
      then(have.ok());
    } else {
      store->Delete(name, [then](Status) { then(false); });
    }
  };
  auto send = [store, name, data = std::move(data)](auto cb) {
    store->Put(name, data, std::move(cb));
  };
  Run<Status>(ctx, ctx.timeout, std::move(send), std::move(done),
              std::move(reconcile));
}

void RetryGet(const RetryContext& ctx, std::string name,
              std::function<void(Result<Buffer>)> done) {
  Run<Result<Buffer>>(ctx, ctx.timeout,
                      [store = ctx.store, name = std::move(name)](auto cb) {
    store->Get(name, std::move(cb));
  }, std::move(done));
}

void RetryGetRange(const RetryContext& ctx, std::string name, uint64_t offset,
                   uint64_t len, std::function<void(Result<Buffer>)> done) {
  Run<Result<Buffer>>(
      ctx, ctx.timeout,
      [store = ctx.store, name = std::move(name), offset, len](auto cb) {
    store->GetRange(name, offset, len, std::move(cb));
  }, std::move(done));
}

void RetryDelete(const RetryContext& ctx, std::string name,
                 std::function<void(Status)> done) {
  // Deletes are never timed out.
  Run<Status>(ctx, /*timeout=*/0,
              [store = ctx.store, name = std::move(name)](auto cb) {
    store->Delete(name, std::move(cb));
  }, done ? std::move(done) : [](Status) {});
}

}  // namespace lsvd
