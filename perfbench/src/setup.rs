//! One-time preparation (trained weights, warm artifact store) and the
//! per-run set-up every workload times as `setup_s`.

use goldeneye::{run_weight_campaign, CampaignConfig, GoldenEye};
use models::{DeitConfig, ResNet, ResNetConfig, SyntheticDataset, TrainConfig, VisionTransformer};
use nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use store::Store;

/// Root of the caches of trained weights and warm stores, relative to the
/// checkout.
const CACHE_ROOT: &str = ".perfbench_cache";
/// Sources whose every file keys the cache (see [`cache_dir`]).
const KEYED_SOURCES: [&str; 4] =
    ["crates", "perfbench/src", "perfbench/Cargo.toml", ".cargo/config.toml"];

const IMG: usize = 32;
const CLASSES: usize = 10;
/// Seed of the fixed training split; workload inputs come from `--seed`.
const TRAIN_SEED: u64 = 2022;

/// The formats the workloads emulate, one per family, keyed by family.
pub const FAMILIES: [(&str, &str); 6] = [
    ("fp", "fp:e4m3"),
    ("fxp", "fxp:1:3:12"),
    ("int", "int:8"),
    ("bfp", "bfp:e8m7:b16"),
    ("afp", "afp:e4m3"),
    ("mx", "mx:fp8e4m3:b32"),
];

/// The evaluation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Width-8 ResNet-18.
    Resnet18,
    /// DeiT-tiny at 32×32.
    DeitTiny,
}

impl ModelKind {
    /// Stable name used in keys and cache files.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Resnet18 => "resnet18",
            ModelKind::DeitTiny => "deit_tiny",
        }
    }

    fn build(self) -> Box<dyn Module> {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        match self {
            ModelKind::Resnet18 => {
                Box::new(ResNet::new(ResNetConfig::resnet18(8, CLASSES), &mut rng))
            }
            ModelKind::DeitTiny => {
                Box::new(VisionTransformer::new(DeitConfig::deit_tiny(IMG, CLASSES), &mut rng))
            }
        }
    }

    /// A short deterministic training run: enough for non-trivial
    /// accuracy, and the benchmark needs trained rather than random
    /// weights only so that activations have realistic ranges.
    fn train_config(self) -> TrainConfig {
        match self {
            ModelKind::Resnet18 => {
                TrainConfig { epochs: 4, batch_size: 32, lr: 2e-3, ..Default::default() }
            }
            ModelKind::DeitTiny => {
                TrainConfig { epochs: 3, batch_size: 32, lr: 1e-3, ..Default::default() }
            }
        }
    }

    fn weights_path(self) -> PathBuf {
        cache_dir().join(format!("{}.weights", self.name()))
    }

    /// Builds the model and loads its cached weights.
    ///
    /// # Panics
    ///
    /// Panics when [`prepare`] has not run in this checkout.
    pub fn load(self) -> Box<dyn Module> {
        let m = self.build();
        models::load_params(m.as_ref(), self.weights_path())
            .unwrap_or_else(|e| panic!("cached {} weights unusable: {e}", self.name()));
        m
    }
}

const ALL_MODELS: [ModelKind; 2] = [ModelKind::Resnet18, ModelKind::DeitTiny];

/// The cache of this build: `.perfbench_cache/<digest>`, where the
/// digest (FNV-1a) covers the path and bytes of every file the program
/// and this benchmark are built from. Store keys hold only a tensor and a
/// format spec, so a cache made by other code (another quantiser, LUT or
/// model) would otherwise be served as if this code had made it.
pub fn cache_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| Path::new(CACHE_ROOT).join(format!("{:016x}", source_digest())))
}

fn source_digest() -> u64 {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            for entry in std::fs::read_dir(path).expect("readable source directory") {
                walk(&entry.expect("readable directory entry").path(), files);
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in KEYED_SOURCES {
        walk(Path::new(root), &mut files);
    }
    assert!(!files.is_empty(), "no program sources under the working directory");
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(&f).expect("readable source file"));
        bytes.push(0);
    }
    formats::hash::fnv1a(&bytes)
}

fn ready_marker() -> PathBuf {
    cache_dir().join("READY")
}

/// Path of the shared warm artifact store.
pub fn store_dir() -> PathBuf {
    cache_dir().join("store")
}

/// Whether the one-time preparation has completed for this build.
pub fn prepared() -> bool {
    ready_marker().is_file()
}

/// One-time preparation, run in a child process so that neither its time
/// nor its memory lands in a workload's figures. Removes the caches of
/// other builds, trains and caches every model, and fills the artifact
/// store with every lookup the workloads make: every model's weights in
/// every emulated format (as `evaluate` quantises them), and the weight
/// campaign's own lookups (it quantises already-quantised weights;
/// `run_campaign` makes none). So the timed runs never write to it.
pub fn prepare() {
    if let Ok(entries) = std::fs::read_dir(CACHE_ROOT) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path != cache_dir() {
                let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
            }
        }
    }
    std::fs::create_dir_all(cache_dir()).expect("cannot create the cache directory");
    let train = SyntheticDataset::generate(512, IMG, CLASSES, TRAIN_SEED);
    let store = open_store();
    let (x, y) = inputs(0, 2).head_batch(2);
    for kind in ALL_MODELS {
        let model = kind.build();
        eprintln!("[perfbench] training {} once (cached afterwards)", kind.name());
        models::train(model.as_ref(), &train, &kind.train_config());
        let tmp = kind.weights_path().with_extension("tmp");
        models::save_params(model.as_ref(), &tmp).expect("cannot write weights");
        std::fs::rename(&tmp, kind.weights_path()).expect("cannot publish weights");
        for (_, spec) in FAMILIES {
            let ge = engine(spec, Some(&store));
            let snap = goldeneye::ParamSnapshot::capture(model.as_ref());
            ge.quantize_weights(model.as_ref());
            snap.restore(model.as_ref());
        }
        if kind == ModelKind::Resnet18 {
            let cfg = CampaignConfig { injections_per_layer: 1, jobs: 1, ..Default::default() };
            run_weight_campaign(&engine("fp:e4m3", Some(&store)), model.as_ref(), &x, &y, &cfg);
        }
    }
    std::fs::write(ready_marker(), "").expect("cannot write the cache marker");
}

/// Runs [`prepare`] in a child process of this executable unless the
/// checkout is already prepared, and waits for it.
pub fn ensure_prepared() {
    if prepared() {
        return;
    }
    let exe = std::env::current_exe().expect("own executable path");
    let status = std::process::Command::new(exe)
        .arg("--prepare")
        .status()
        .expect("cannot start the preparation process");
    assert!(status.success() && prepared(), "one-time preparation failed: {status}");
}

/// Parses `spec` into an emulation engine, attaching `store` when given
/// (which also loads the format's cached dequantise LUT).
pub fn engine(spec: &str, store: Option<&Arc<Store>>) -> GoldenEye {
    let ge = GoldenEye::parse(spec).unwrap_or_else(|e| panic!("bad format spec {spec}: {e}"));
    match store {
        Some(s) => ge.with_store(s.clone()),
        None => ge,
    }
}

/// Opens the warm artifact store.
pub fn open_store() -> Arc<Store> {
    Arc::new(Store::open(store_dir()).expect("cannot open the artifact store"))
}

/// The evaluation inputs for `seed`: `n` synthetic images of the same
/// distribution the models were trained on.
pub fn inputs(seed: u64, n: usize) -> SyntheticDataset {
    // Offset so that no workload seed reproduces the training split.
    SyntheticDataset::generate(n, IMG, CLASSES, seed.wrapping_add(1 << 32))
}
