//! Worker-thread sizing: the one implementation of the `REGNET_THREADS`
//! override, read by the bench binaries to size the campaign worker pool.

/// Number of worker threads for campaign cells.
/// `REGNET_THREADS=<n>` overrides the detected parallelism (useful for CI
/// runners and reproducible timings).
///
/// The environment is read once, on first call; later mutations of
/// `REGNET_THREADS` (e.g. by tests running in the same process) have no
/// effect. The override logic itself lives in [`threads_from`].
pub fn threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| threads_from(std::env::var("REGNET_THREADS").ok().as_deref()))
}

/// Worker-thread count given the raw `REGNET_THREADS` value, if any: a
/// positive integer wins; anything else (including `None`) falls back to
/// the detected parallelism. Pure, so tests can cover the override rules
/// without mutating process-global environment state.
pub fn threads_from(override_var: Option<&str>) -> usize {
    if let Some(v) = override_var {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("ignoring invalid REGNET_THREADS={v:?}"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_override_rules() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 8 ")), 8);
        let detected = threads_from(None);
        assert!(detected >= 1);
        assert_eq!(threads_from(Some("0")), detected, "0 is invalid");
        assert_eq!(threads_from(Some("nope")), detected);
    }
}
