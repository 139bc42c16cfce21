//! Std-only POSIX signal latch for graceful shutdown.
//!
//! `install` registers a handler for SIGTERM and SIGINT that does the only
//! async-signal-safe thing possible: set a global flag. The server's signal
//! watcher (`ServerConfig::signal_stop`) polls the latch and converts it
//! into an ordinary engine `Shutdown` command — in-flight HTTP commands
//! drain (the engine is strictly sequential), a final checkpoint lands when
//! a WAL is attached, and the process exits 0.
//!
//! No dependency on `libc`: the two syscalls needed (`signal`, `raise`) are
//! declared directly. On non-unix targets the latch exists but `install`
//! is a no-op.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    TRIGGERED.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT into the latch. Idempotent.
#[cfg(unix)]
pub fn install() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
pub fn install() {}

/// True once any installed signal has fired. Sticky.
pub(crate) fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn sigterm_sets_the_latch() {
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        install();
        // With the handler installed, raising SIGTERM must not kill the
        // test process — it must only set the latch.
        unsafe {
            raise(SIGTERM);
        }
        assert!(triggered());
    }
}
