//! Cooperative cancellation: deadline-carrying tokens that long-running
//! work polls between natural checkpoints.
//!
//! The simulation stack's units of work — a Newton solve, a sweep
//! chunk, an AC frequency point — are short individually but unbounded
//! in aggregate, and `carbon-serve` promises every job a deadline. A
//! [`CancelToken`] is how that promise reaches the inner loops without
//! threading a parameter through every API: the serving layer installs
//! a token for the dynamic extent of a job ([`scope`]), and solver
//! loops poll [`cancelled`] between iterations. With no token installed
//! the poll is one thread-local read that returns `false`, so library
//! users who never cancel pay nothing.
//!
//! The [`Executor`](crate::executor::Executor) enters the calling
//! thread's token on each scoped helper through [`scope`], so a
//! cancellation covers every chunk of a parallel sweep, the ones the
//! caller runs itself and the ones its helpers run.
//!
//! Cancellation is **observational, never participatory**: a token can
//! only make work stop early with an error, not change any value a
//! completed computation produces. Results that are produced remain
//! bit-identical with or without a token installed.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation handle: an explicit flag plus an optional
/// deadline. Cheap to clone (one `Arc`).
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is
    /// called.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A token whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::build(Some(Instant::now() + timeout))
    }

    fn build(deadline: Option<Instant>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
            }),
        }
    }

    /// Requests cancellation explicitly (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self
                .inner
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Runs `f` with `token` installed as the calling thread's cancellation
/// token, restoring the previous token (if any) afterwards. Executor
/// helpers spawned inside `f` enter the token through this function
/// too.
pub fn scope<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<CancelToken>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        }
    }
    let _restore = Restore {
        prev: CURRENT.with(|c| c.borrow_mut().replace(token.clone())),
    };
    f()
}

/// The calling thread's installed token, if any — what the executor
/// forwards into its helpers.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the calling thread's work has been asked to stop — the
/// checkpoint solver loops poll between iterations. `false` (one
/// thread-local read) when no token is installed.
#[inline]
pub fn cancelled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_token_means_never_cancelled() {
        assert!(!cancelled());
    }

    #[test]
    fn explicit_cancel_is_visible_in_scope() {
        let token = CancelToken::new();
        scope(&token, || {
            assert!(!cancelled());
            token.cancel();
            assert!(cancelled());
        });
        assert!(!cancelled(), "scope restored the empty state");
    }

    #[test]
    fn deadline_tokens_expire() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert!(
            token.is_cancelled(),
            "expired deadline is already cancelled"
        );
        let later = CancelToken::with_timeout(Duration::from_hours(1));
        assert!(!later.is_cancelled());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        scope(&outer, || {
            outer.cancel();
            assert!(cancelled());
            scope(&inner, || assert!(!cancelled(), "inner token shadows"));
            assert!(cancelled(), "outer token restored");
        });
    }

    #[test]
    fn tokens_cross_threads() {
        let token = CancelToken::new();
        token.cancel();
        let seen = std::thread::spawn({
            let token = token.clone();
            move || scope(&token, cancelled)
        })
        .join()
        .unwrap();
        assert!(seen);
    }

    #[test]
    fn executor_workers_inherit_the_token() {
        use crate::executor::Executor;
        let token = CancelToken::new();
        token.cancel();
        let flags = scope(&token, || {
            Executor::with_threads(4).par_map(16, |_| cancelled())
        });
        assert!(
            flags.iter().all(|&f| f),
            "every worker observed the caller's cancellation"
        );
        // And without a scope, workers see no token.
        let flags = Executor::with_threads(4).par_map(16, |_| cancelled());
        assert!(flags.iter().all(|&f| !f));
    }
}
