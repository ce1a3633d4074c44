//! Provenance and process probes: core count, SIMD tier, source revision,
//! the WAL directory's filesystem, and peak resident memory.
//!
//! The two kernel queries go straight to the C library the standard
//! library already links, so the benchmark reads nothing outside its
//! checkout (no `/proc` scraping).

use std::ffi::CString;
use std::os::raw::{c_char, c_int, c_long};
use std::path::Path;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn statfs(path: *const c_char, buf: *mut [u64; 16]) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` (144 bytes on 64-bit Linux), and `getrusage` writes
    // only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0 // Linux reports KiB
}

/// Filesystem type of `dir` by its `statfs` magic ("unknown" if the call
/// fails or the magic is not one of the common ones).
pub fn fs_type(dir: &Path) -> String {
    let Some(path) = dir.to_str().and_then(|s| CString::new(s).ok()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux; 128 leaves headroom.
    let mut buf = [0u64; 16];
    // SAFETY: `path` is a NUL-terminated string that outlives the call and
    // `buf` is writable memory larger than `struct statfs`.
    let rc = unsafe { statfs(path.as_ptr(), &mut buf) };
    if rc != 0 {
        return "unknown".into();
    }
    // `f_type` is the first field, a `long`.
    let name = match buf[0] {
        0xEF53 => "ext4",
        0x0102_1994 => "tmpfs",
        0x5846_5342 => "xfs",
        0x9123_683E => "btrfs",
        0x794C_7630 => "overlayfs",
        0x6573_5546 => "fuse",
        0x0102_1997 => "9p",
        other => return format!("0x{other:x}"),
    };
    name.into()
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit the checkout was made from, read from `.git` without running
/// git; "unknown" outside a git work tree.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
