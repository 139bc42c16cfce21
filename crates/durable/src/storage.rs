//! The one place `sd-durable` touches the disk: [`Storage`] has exactly the
//! operations [`DurableStore`](crate::DurableStore) makes, so a test can swap
//! in a double that fails any of them; [`FsStorage`] is the real one.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The disk operations of one store directory. Names are file names inside
/// it; the log is always [`WAL_FILE`](crate::WAL_FILE).
pub trait Storage: Send {
    /// The whole content of `name`; `None` when it does not exist.
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Appends `bytes` to the end of the log in one write.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the log's data to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Cuts the log to `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Atomically replaces `name` with `bytes`: a reader sees the old or the
    /// new content, never a mix, and the new one survives power loss once
    /// this returns `Ok`.
    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
}

/// [`Storage`] over a directory of real files.
#[derive(Debug)]
pub struct FsStorage {
    dir: PathBuf,
    /// The log, opened for appending: every write lands at its end.
    log: File,
}

impl FsStorage {
    /// Opens the store directory, creating it and an empty log when absent;
    /// a created log's directory entry is fsynced before this returns.
    pub fn open(dir: &Path) -> io::Result<FsStorage> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(crate::WAL_FILE);
        let fresh = !path.try_exists()?;
        let log = OpenOptions::new().create(true).append(true).open(&path)?;
        let storage = FsStorage { dir: dir.to_path_buf(), log };
        if fresh {
            storage.sync_dir()?;
        }
        Ok(storage)
    }

    /// Makes the directory's entries (a created or renamed file) durable.
    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }
}

impl Storage for FsStorage {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(name)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.log.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.log.set_len(len)
    }

    /// Writes `<name>` with a `.tmp` extension, fsyncs it, renames it over
    /// `name`, then fsyncs the directory so the rename itself is durable.
    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let dst = self.dir.join(name);
        let tmp = dst.with_extension("tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &dst)?;
        self.sync_dir()
    }
}
