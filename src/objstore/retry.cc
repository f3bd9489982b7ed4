#include "src/objstore/retry.h"

#include <algorithm>
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

// One logical request: its attempts, backoff sleeps and timeout races. It
// lives on the heap, owned by whichever answer, timer or sleep is pending.
template <typename R>
struct Request : std::enable_shared_from_this<Request<R>> {
  using Done = std::function<void(R)>;
  // `send` sends one attempt. `reconcile` (PUT only) runs before each retry
  // and calls back with true when an earlier attempt turns out to have
  // landed.
  Request(RetryContext c, std::function<void(Done)> s,
          std::function<void(std::function<void(bool)>)> r, Done d)
      : ctx(std::move(c)), send(std::move(s)), reconcile(std::move(r)),
        done(std::move(d)) {}

  void Attempt() {
    if (failed == 0 || !reconcile) {
      Send();
      return;
    }
    reconcile([self = this->shared_from_this()](bool landed) {
      if (*self->ctx.alive) {
        landed ? self->done(Status::Ok()) : self->Send();
      }
    });
  }

  void Send() {
    auto self = this->shared_from_this();
    // Whichever of the answer and the timeout comes first settles the
    // attempt; the other is ignored.
    auto settled = std::make_shared<bool>(false);
    if (ctx.timeout > 0) {
      ctx.sim->After(ctx.timeout, [self, settled] {
        if (*self->ctx.alive && !std::exchange(*settled, true)) {
          if (self->ctx.on_timeout) {
            self->ctx.on_timeout();
          }
          self->Failed(Status::Unavailable("object-store request timed out"));
        }
      });
    }
    send([self, settled](R r) {
      if (!*self->ctx.alive || std::exchange(*settled, true)) {
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
    if (++failed >= ctx.policy->max_attempts) {
      done(std::move(r));
      return;
    }
    if (ctx.on_retry) {
      ctx.on_retry();
    }
    ctx.sim->After(RetryBackoff(*ctx.policy, failed, *ctx.rng),
                   [self = this->shared_from_this()] {
                     if (*self->ctx.alive) {
                       self->Attempt();
                     }
                   });
  }

  RetryContext ctx;
  std::function<void(Done)> send;
  std::function<void(std::function<void(bool)>)> reconcile;
  Done done;
  int failed = 0;  // failed attempts so far
};

template <typename R, typename Send>
void Run(const RetryContext& ctx, Send send, std::function<void(R)> done,
         std::function<void(std::function<void(bool)>)> reconcile = nullptr) {
  std::make_shared<Request<R>>(ctx, std::move(send), std::move(reconcile),
                               std::move(done))
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
  Run<Status>(ctx, std::move(send), std::move(done), std::move(reconcile));
}

void RetryGet(const RetryContext& ctx, std::string name,
              std::function<void(Result<Buffer>)> done) {
  Run<Result<Buffer>>(ctx, [store = ctx.store, name = std::move(name)](auto cb) {
    store->Get(name, std::move(cb));
  }, std::move(done));
}

void RetryGetRange(const RetryContext& ctx, std::string name, uint64_t offset,
                   uint64_t len, std::function<void(Result<Buffer>)> done) {
  Run<Result<Buffer>>(
      ctx, [store = ctx.store, name = std::move(name), offset, len](auto cb) {
    store->GetRange(name, offset, len, std::move(cb));
  }, std::move(done));
}

void RetryDelete(const RetryContext& ctx, std::string name,
                 std::function<void(Status)> done) {
  RetryContext untimed = ctx;
  untimed.timeout = 0;
  Run<Status>(untimed, [store = ctx.store, name = std::move(name)](auto cb) {
    store->Delete(name, std::move(cb));
  }, done ? std::move(done) : [](Status) {});
}

}  // namespace lsvd
