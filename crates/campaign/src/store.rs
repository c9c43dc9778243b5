//! Checkpointed result storage: one JSON file per cell, named by its
//! config hash, written atomically.
//!
//! The store is what makes campaigns resumable: before running, the
//! work-queue asks the store which hashes already exist and skips them;
//! after each cell lands, the result is written to `<hash>.json` via a
//! temporary file + rename, so a kill at any instant leaves either no
//! file or a complete one — never a torn checkpoint.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::cell::CellResult;
use crate::spec::fnv1a64;

/// A results directory holding one `cells/<hash>.json` per finished cell.
pub struct ResultStore {
    root: PathBuf,
    cells: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) a results directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultStore, String> {
        let root = root.into();
        let cells = root.join("cells");
        fs::create_dir_all(&cells)
            .map_err(|e| format!("cannot create results dir {}: {e}", cells.display()))?;
        Ok(ResultStore { root, cells })
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn cell_path(&self, hash: &str) -> PathBuf {
        self.cells.join(format!("{hash}.json"))
    }

    /// Is this cell already checkpointed?
    pub fn contains(&self, hash: &str) -> bool {
        self.cell_path(hash).is_file()
    }

    /// Load the checkpoint of the planned cell `hash`, whose canonical key
    /// is `key`. A checkpoint that stores another key is refused: FNV-64
    /// hashes can collide, and the file is input from disk.
    pub fn load(&self, hash: &str, key: &str) -> Result<CellResult, String> {
        let result = self.read(hash)?;
        if result.key != key {
            return Err(format!(
                "checkpoint {} holds key {:?}, the plan's cell is {key:?}",
                self.cell_path(hash).display(),
                result.key
            ));
        }
        Ok(result)
    }

    /// Read one checkpoint, checking that it holds `hash` and that its
    /// key hashes to it.
    fn read(&self, hash: &str) -> Result<CellResult, String> {
        let path = self.cell_path(hash);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let result = CellResult::from_json_str(&text)
            .map_err(|e| format!("corrupt checkpoint {}: {e}", path.display()))?;
        if result.hash != hash {
            return Err(format!(
                "checkpoint {} holds hash {} (file renamed or corrupted)",
                path.display(),
                result.hash
            ));
        }
        let key_hash = format!("{:016x}", fnv1a64(result.key.as_bytes()));
        if key_hash != hash {
            return Err(format!(
                "checkpoint {} holds key {:?}, which hashes to {key_hash} (key edited or corrupted)",
                path.display(),
                result.key
            ));
        }
        Ok(result)
    }

    /// Checkpoint one cell atomically (tmp file + rename).
    pub fn save(&self, result: &CellResult) -> Result<(), String> {
        write_atomically(&self.cell_path(&result.hash), &result.to_json_string())
    }

    /// Load every checkpointed cell, keyed by hash, without a plan to
    /// check the stored keys against. `BTreeMap` so the aggregate view is
    /// ordered identically regardless of which worker finished first (or
    /// which run of a resumed campaign wrote the file).
    pub fn load_all(&self) -> Result<BTreeMap<String, CellResult>, String> {
        let mut out = BTreeMap::new();
        let entries = fs::read_dir(&self.cells)
            .map_err(|e| format!("cannot list {}: {e}", self.cells.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list cells dir: {e}"))?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            // Skip tmp files left by a kill mid-write.
            let Some(hash) = name.strip_suffix(".json") else {
                continue;
            };
            out.insert(hash.to_string(), self.read(hash)?);
        }
        Ok(out)
    }

    /// Hashes of every checkpointed cell.
    pub fn hashes(&self) -> Result<Vec<String>, String> {
        Ok(self.load_all()?.into_keys().collect())
    }

    /// Number of checkpointed cells (cheap: counts files, no parsing).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.cells)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| {
                        e.path()
                            .file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.ends_with(".json"))
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delete every checkpoint (the `--fresh` flag).
    pub fn clear(&self) -> Result<(), String> {
        let entries = fs::read_dir(&self.cells)
            .map_err(|e| format!("cannot list {}: {e}", self.cells.display()))?;
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_file() {
                fs::remove_file(&path)
                    .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }
}

/// Write `text` and a newline to `<path>.tmp`, sync it and rename it over
/// `path` (a `.json` file), so a reader sees the old file or the new one
/// and never a torn one.
pub(crate) fn write_atomically(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f =
            fs::File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        f.write_all(text.as_bytes())
            .and_then(|_| f.write_all(b"\n"))
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        f.sync_all()
            .map_err(|e| format!("cannot sync {}: {e}", tmp.display()))?;
    }
    fs::rename(&tmp, path).map_err(|e| format!("cannot commit {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_netsim::ReliabilityStats;

    /// A checkpoint of the cell `key`, named by the key's hash.
    fn fake_result(key: &str, offered: f64) -> CellResult {
        CellResult {
            key: key.to_string(),
            hash: format!("{:016x}", fnv1a64(key.as_bytes())),
            offered,
            accepted: offered * 0.97,
            avg_latency_ns: 812.5,
            p99_latency_ns: 2200.0,
            avg_total_latency_ns: 950.25,
            avg_itbs_per_msg: 0.125,
            delivered: 12345,
            generated: 12350,
            delivered_payload_flits: 790_080,
            window_cycles: 150_000,
            util_mean: 0.21,
            util_max: 0.55,
            digest: Some("deadbeefcafe0123".to_string()),
            digest_events: 12345,
            reliability: ReliabilityStats::default(),
            goodput: None,
            wall_ms: 42,
            peak_rss_kb: 0,
        }
    }

    #[test]
    fn save_load_roundtrip_and_resume_view() {
        let dir = std::env::temp_dir().join(format!("regnet-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let a = fake_result("topo=torus:4x4:2,load=0.01", 0.01);
        let b = fake_result("topo=torus:4x4:2,load=0.02", 0.02);
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.contains(&a.hash));
        assert!(!store.contains("00000000000000cc"));
        assert_eq!(store.load(&a.hash, &a.key).unwrap(), a);
        let all = store.load_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[&b.hash], b);
        // Re-opening sees the same contents (that *is* resume).
        let reopened = ResultStore::open(&dir).unwrap();
        let mut hashes = vec![a.hash, b.hash];
        hashes.sort();
        assert_eq!(reopened.hashes().unwrap(), hashes);
        reopened.clear().unwrap();
        assert!(reopened.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_ignored_and_mismatched_hash_rejected() {
        let dir = std::env::temp_dir().join(format!("regnet-store2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let a = fake_result("topo=torus:4x4:2,load=0.01", 0.01);
        store.save(&a).unwrap();
        // A kill mid-write leaves a tmp file behind: load_all must skip it.
        fs::write(dir.join("cells/00000000000000bb.json.tmp"), "{garbage").unwrap();
        assert_eq!(store.load_all().unwrap().len(), 1);
        // A renamed checkpoint (hash mismatch) must be refused, not
        // silently attributed to the wrong cell.
        fs::copy(
            store.cell_path(&a.hash),
            dir.join("cells/00000000000000cc.json"),
        )
        .unwrap();
        assert!(store.load("00000000000000cc", &a.key).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_empty_checkpoints_are_refused_and_fail_a_resume() {
        use crate::runner::{run_plan, RunnerOptions};
        use crate::spec::CampaignSpec;
        let plan = CampaignSpec::from_json_str(
            r#"{
                "name": "store-test",
                "defaults": {"warmup_cycles": 2000, "measure_cycles": 10000, "seed": 7},
                "sweeps": [
                    {"group": "g", "topos": ["torus:4x4:2"], "schemes": ["UP/DOWN"],
                     "patterns": ["uniform"], "loads": [0.004, 0.008]}
                ]
            }"#,
        )
        .unwrap()
        .expand()
        .unwrap();
        for (tag, half) in [("half", true), ("empty", false)] {
            let dir =
                std::env::temp_dir().join(format!("regnet-store5-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let store = ResultStore::open(&dir).unwrap();
            for c in &plan.cells {
                store.save(&fake_result(&c.key, 0.004)).unwrap();
            }
            // Cut the first cell's checkpoint to half its bytes, or to none.
            let cell = &plan.cells[0];
            let path = store.cell_path(&cell.hash);
            let bytes = fs::read(&path).unwrap();
            let kept = if half { bytes.len() / 2 } else { 0 };
            fs::write(&path, &bytes[..kept]).unwrap();
            let want = format!("corrupt checkpoint {}", path.display());
            let err = store.load(&cell.hash, &cell.key).unwrap_err();
            assert!(err.contains(&want), "{tag}: {err}");
            let err = store.load_all().unwrap_err();
            assert!(err.contains(&want), "{tag}: {err}");
            // A resume neither re-runs the cell (its file exists) nor
            // reuses it: loading the plan's checkpoints, as `campaign`
            // does before it runs anything, fails naming the file.
            assert!(store.contains(&cell.hash));
            let out = run_plan(&plan, &store, &RunnerOptions::default(), |_| {
                panic!("{tag}: a resume ran a checkpointed cell")
            })
            .unwrap();
            assert_eq!((out.ran, out.skipped), (0, plan.len()));
            let err = plan
                .cells
                .iter()
                .try_for_each(|c| store.load(&c.hash, &c.key).map(drop))
                .unwrap_err();
            assert!(err.contains(&want), "{tag}: {err}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_checkpoint_with_the_right_hash_and_another_key_is_refused() {
        let dir = std::env::temp_dir().join(format!("regnet-store3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        // The planned cell's hash holding another cell's key: what an FNV-64
        // collision would leave.
        let stored = fake_result("topo=torus:4x4:2,load=0.5", 0.5);
        store.save(&stored).unwrap();
        let planned = "topo=torus:4x4:2,load=0.01";
        let err = store.load(&stored.hash, planned).unwrap_err();
        assert!(err.contains(&stored.key) && err.contains(planned), "{err}");
        assert_eq!(store.load(&stored.hash, &stored.key).unwrap(), stored);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_whose_key_does_not_hash_to_its_name_is_refused() {
        let dir = std::env::temp_dir().join(format!("regnet-store4-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let a = fake_result("topo=torus:4x4:2,load=0.01", 0.01);
        store.save(&a).unwrap();
        // Edit the stored key in place: `load_all` has no plan to compare
        // it with, so only the hash can tell.
        let path = store.cell_path(&a.hash);
        let text = fs::read_to_string(&path).unwrap();
        let edited = text.replace("load=0.01", "load=0.5");
        assert_ne!(edited, text);
        fs::write(&path, edited).unwrap();
        let err = store.load_all().unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(store.load(&a.hash, &a.key).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
