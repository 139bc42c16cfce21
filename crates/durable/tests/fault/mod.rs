//! A [`Storage`] double that fails chosen calls of a real [`FsStorage`]:
//! the fault injector of the store-level matrix (`tests/storage_faults.rs`)
//! and of `sd-serve`'s engine-level one, which includes this file.

use sd_durable::{FsStorage, Storage};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How a faulted call fails. Every faulted call returns `Err`; the kind says
/// how much of it reached the disk first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// An fsync error (EIO): the call does nothing.
    Fsync,
    /// The disk is full (ENOSPC): nothing is written.
    NoSpace,
    /// An append writes the first half of its bytes, then ENOSPC; any other
    /// call does nothing.
    Short,
    /// A replace's rename lands but the directory fsync after it fails
    /// (EIO); any other call does nothing.
    Rename,
}

pub const FAULTS: [Fault; 4] = [Fault::Fsync, Fault::NoSpace, Fault::Short, Fault::Rename];

impl Fault {
    fn error(self) -> io::Error {
        const EIO: i32 = 5;
        const ENOSPC: i32 = 28;
        let errno = match self {
            Fault::Fsync | Fault::Rename => EIO,
            Fault::NoSpace | Fault::Short => ENOSPC,
        };
        io::Error::from_raw_os_error(errno)
    }
}

/// A real store directory whose call number `at` fails with `fault` — and,
/// when `from_on`, every call after it too. A `sync` that does not fail
/// skips the real fsync: these tests end a session as a process crash
/// does, which the page cache survives, and thousands of fsyncs would only
/// slow them down.
pub struct Faulty {
    inner: FsStorage,
    fault: Fault,
    at: usize,
    from_on: bool,
    /// Calls made so far, shared with whoever boxed the double away.
    calls: Arc<AtomicUsize>,
}

impl Faulty {
    pub fn new(dir: &Path, fault: Fault, at: usize, from_on: bool) -> Faulty {
        let inner = FsStorage::open(dir).expect("open the store directory");
        Faulty { inner, fault, at, from_on, calls: Arc::default() }
    }

    /// A double that never fails: it counts a session's calls.
    pub fn counting(dir: &Path) -> Faulty {
        Faulty::new(dir, Fault::Fsync, usize::MAX, false)
    }

    /// A handle on the number of calls made so far.
    pub fn calls(&self) -> Arc<AtomicUsize> {
        self.calls.clone()
    }

    /// The fault this call suffers, if any.
    fn hit(&mut self) -> Option<Fault> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        (n == self.at || (self.from_on && n > self.at)).then_some(self.fault)
    }
}

impl Storage for Faulty {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match self.hit() {
            Some(f) => Err(f.error()),
            None => self.inner.read(name),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.hit() {
            Some(f @ Fault::Short) => {
                self.inner.append(&bytes[..bytes.len() / 2])?;
                Err(f.error())
            }
            Some(f) => Err(f.error()),
            None => self.inner.append(bytes),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.hit() {
            Some(f) => Err(f.error()),
            None => Ok(()),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        match self.hit() {
            Some(f) => Err(f.error()),
            None => self.inner.truncate(len),
        }
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        match self.hit() {
            Some(f @ Fault::Rename) => {
                self.inner.replace(name, bytes)?;
                Err(f.error())
            }
            Some(f) => Err(f.error()),
            None => self.inner.replace(name, bytes),
        }
    }
}
