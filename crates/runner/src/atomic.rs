//! Whole-file artifacts published by tmp+rename: a reader of `path`
//! sees the old file or the whole new one, never a torn one. A writer
//! dropped unfinished (an error, a panic) removes its `.tmp`; only a
//! killed process leaves one behind, beside the intact old file.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// A file being written to `<path>.tmp`, renamed to `path` on
/// [`finish`](Self::finish) — the one way a run publishes a file.
#[derive(Debug)]
pub struct AtomicFile {
    tmp: PathBuf,
    path: PathBuf,
    out: BufWriter<File>,
    /// Set once the file has been renamed into place.
    done: bool,
}

impl AtomicFile {
    /// Creates (truncating) `<path>.tmp`.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub fn create(path: &Path) -> Result<Self, String> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file =
            File::create(&tmp).map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
        Ok(Self {
            tmp,
            path: path.to_owned(),
            out: BufWriter::new(file),
            done: false,
        })
    }

    /// Appends `text`.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub fn write(&mut self, text: &str) -> Result<(), String> {
        self.out
            .write_all(text.as_bytes())
            .map_err(|e| format!("cannot write `{}`: {e}", self.tmp.display()))
    }

    /// Flushes what is written so far and syncs the `.tmp` file's data
    /// to disk. [`finish`](Self::finish) alone survives a killed
    /// process but not an OS crash or a power loss; a caller that then
    /// deletes the only other copy of the bytes syncs first.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures.
    pub fn sync_data(&mut self) -> Result<(), String> {
        self.out
            .flush()
            .and_then(|()| self.out.get_ref().sync_data())
            .map_err(|e| format!("cannot sync `{}`: {e}", self.tmp.display()))
    }

    /// Flushes the file and renames it into place; returns its path.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures; the `.tmp` file is then
    /// removed.
    pub fn finish(mut self) -> Result<PathBuf, String> {
        self.out
            .flush()
            .map_err(|e| format!("cannot write `{}`: {e}", self.tmp.display()))?;
        std::fs::rename(&self.tmp, &self.path)
            .map_err(|e| format!("cannot move `{}` into place: {e}", self.path.display()))?;
        self.done = true;
        Ok(self.path.clone())
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.done {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Writes `contents` to `path` through an [`AtomicFile`].
///
/// # Errors
///
/// Returns a message for I/O failures.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let mut file = AtomicFile::create(path)?;
    file.write(contents)?;
    file.finish().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_finish_replaces_the_file_and_a_drop_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("fcdpm-runner-atomic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("aggregate.json");
        let tmp = dir.join("aggregate.json.tmp");
        write_atomic(&path, "first").expect("writes");
        let mut file = AtomicFile::create(&path).expect("creates");
        file.write("torn").expect("writes");
        assert!(tmp.exists());
        drop(file);
        assert!(!tmp.exists(), "a writer dropped unfinished removes its tmp");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), "first");
        let mut file = AtomicFile::create(&path).expect("creates");
        file.write("sec").expect("writes");
        file.sync_data().expect("syncs");
        file.write("ond").expect("writes");
        assert_eq!(file.finish().expect("renames"), path);
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), "second");
        assert!(!tmp.exists(), "no tmp survives");
    }
}
