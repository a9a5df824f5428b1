//! The dataset families of Table I, and the benchmark-URI registry.
//!
//! Benchmarks are addressed by URI, `benchmark://<dataset>/<path>`, exactly
//! as in CompilerGym. Finite datasets enumerate their members (by name for
//! curated suites, by index for corpus-derived families); the generator
//! datasets (`csmith-v0`, `llvm-stress-v0`) accept any 32-bit seed as the
//! path, giving 2³² programs each.

use cg_ir::builder::ModuleBuilder;
use cg_ir::{BinOp, Module};
use std::fmt;

use crate::kernels as k;
use crate::rng::derive_seed;
use crate::synth::{self, Profile};

/// How a dataset's members are named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSize {
    /// A curated suite with fixed member names.
    Named(&'static [&'static str]),
    /// An indexed corpus: paths are `0..n`.
    Indexed(u64),
    /// A seeded program generator: paths are any `u32` seed (2³² members).
    Seeded,
}

/// Metadata and construction entry point for one dataset family.
pub struct DatasetInfo {
    /// Dataset name with version, e.g. `cbench-v1`.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Member naming scheme and count.
    pub size: DatasetSize,
    /// Whether members are guaranteed runnable (terminating and trap-free),
    /// enabling runtime rewards and semantics validation.
    pub runnable: bool,
    build: fn(&str, u64) -> Result<Module, DatasetError>,
}

impl fmt::Debug for DatasetInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DatasetInfo")
            .field("name", &self.name)
            .field("size", &self.size)
            .field("runnable", &self.runnable)
            .finish()
    }
}

/// An error resolving a benchmark URI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The URI did not have the `benchmark://dataset/path` shape.
    BadUri(String),
    /// No dataset with that name is registered.
    UnknownDataset(String),
    /// The dataset has no member with that path.
    UnknownBenchmark {
        /// The dataset searched.
        dataset: String,
        /// The path that was not found.
        path: String,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::BadUri(u) => write!(f, "malformed benchmark URI `{u}`"),
            DatasetError::UnknownDataset(d) => write!(f, "unknown dataset `{d}`"),
            DatasetError::UnknownBenchmark { dataset, path } => {
                write!(f, "no benchmark `{path}` in dataset `{dataset}`")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl DatasetInfo {
    /// Number of members, if finite.
    pub fn len(&self) -> Option<u64> {
        match self.size {
            DatasetSize::Named(names) => Some(names.len() as u64),
            DatasetSize::Indexed(n) => Some(n),
            DatasetSize::Seeded => None,
        }
    }

    /// True when the dataset has a finite, zero-length member list (never,
    /// for shipped datasets; present for API completeness alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// The first `limit` benchmark paths of this dataset.
    pub fn benchmark_paths(&self, limit: usize) -> Vec<String> {
        match self.size {
            DatasetSize::Named(names) => names.iter().take(limit).map(|s| s.to_string()).collect(),
            DatasetSize::Indexed(n) => (0..n.min(limit as u64)).map(|i| i.to_string()).collect(),
            DatasetSize::Seeded => (0..limit as u64).map(|i| i.to_string()).collect(),
        }
    }

    /// Builds the benchmark at `path`.
    ///
    /// # Errors
    /// [`DatasetError::UnknownBenchmark`] if the path is not a member.
    pub fn benchmark(&self, path: &str) -> Result<Module, DatasetError> {
        let unknown = || DatasetError::UnknownBenchmark {
            dataset: self.name.to_string(),
            path: path.to_string(),
        };
        let index: u64 = match self.size {
            DatasetSize::Named(names) => {
                names.iter().position(|n| *n == path).ok_or_else(unknown)? as u64
            }
            DatasetSize::Indexed(n) => {
                let i: u64 = path.parse().map_err(|_| unknown())?;
                if i >= n {
                    return Err(unknown());
                }
                i
            }
            DatasetSize::Seeded => {
                let i: u32 = path.parse().map_err(|_| unknown())?;
                i as u64
            }
        };
        (self.build)(path, index)
    }
}

/// The cBench-v1 member names (23 programs, as in the paper).
pub const CBENCH: &[&str] = &[
    "adpcm-c",
    "adpcm-d",
    "bitcount",
    "blowfish-d",
    "blowfish-e",
    "bzip2d",
    "bzip2e",
    "crc32",
    "dijkstra",
    "ghostscript",
    "gsm",
    "ispell",
    "jpeg-c",
    "jpeg-d",
    "lame",
    "patricia",
    "qsort",
    "rijndael-d",
    "rijndael-e",
    "sha",
    "stringsearch",
    "susan",
    "tiff2bw",
];

/// The CHStone member names (12 programs).
pub const CHSTONE: &[&str] = &[
    "adpcm", "aes", "blowfish", "dfadd", "dfdiv", "dfmul", "dfsin", "gsm", "jpeg", "mips",
    "motion", "sha",
];

fn build_cbench(path: &str, _index: u64) -> Result<Module, DatasetError> {
    let m = match path {
        "adpcm-c" => k::single(path, |mb| k::emit_adpcm(mb, "adpcm_coder", 4096, true)),
        "adpcm-d" => k::single(path, |mb| k::emit_adpcm(mb, "adpcm_decoder", 4096, false)),
        "bitcount" => k::single(path, |mb| k::emit_bitcount(mb, "bitcnt", 2048)),
        "blowfish-d" => k::single(path, |mb| k::emit_feistel(mb, "bf_decrypt", 256, 16, true)),
        "blowfish-e" => k::single(path, |mb| k::emit_feistel(mb, "bf_encrypt", 256, 16, false)),
        "bzip2d" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_rle(mb, "unrle", 2048)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_histogram(mb, "mtf", 1024)),
            ],
        ),
        "bzip2e" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_rle(mb, "rle", 4096)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_histogram(mb, "huff_freq", 2048)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_sort_kernel(mb, "block_sort", 192)),
            ],
        ),
        "crc32" => k::single(path, |mb| k::emit_crc32(mb, "crc", 4096)),
        "dijkstra" => k::single(path, |mb| k::emit_dijkstra(mb, "dijkstra", 24)),
        // ghostscript is by far the biggest cBench program; compose many
        // subsystems so both its static size and step cost dominate (Fig. 6).
        "ghostscript" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_vm_interp(mb, "ps_interp", 256, 8000)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_vm_interp(mb, "ps_interp2", 128, 4000)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_stencil2d(mb, "raster", 48, 32)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_dct8x8(mb, "type1_dct", 24)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_histogram(mb, "palette", 2048)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_hash_probe(mb, "dict", 512, 10)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_rle(mb, "pack", 1024)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_sort_kernel(mb, "zsort", 128)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_matmul(mb, "ctm", 12)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_stringsearch(mb, "scan", 1024, 12)),
            ],
        ),
        "gsm" => k::single(path, |mb| k::emit_autocorr(mb, "gsm_autocorr", 2048, 9)),
        "ispell" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_hash_probe(mb, "dict_lookup", 1024, 10)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_stringsearch(mb, "affix", 512, 6)),
            ],
        ),
        "jpeg-c" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_dct8x8(mb, "fdct", 48)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_histogram(mb, "huffman", 1024)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_rle(mb, "rle_ac", 512)),
            ],
        ),
        "jpeg-d" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_dct8x8(mb, "idct", 32)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_stencil2d(mb, "upsample", 32, 24)),
            ],
        ),
        "lame" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_fir(mb, "polyphase", 2048, 32)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_autocorr(mb, "psycho", 1024, 12)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_sine_taylor(mb, "mdct_win", 256)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_histogram(mb, "bitalloc", 512)),
            ],
        ),
        "patricia" => k::single(path, |mb| k::emit_hash_probe(mb, "trie", 2048, 12)),
        "qsort" => k::single(path, |mb| k::emit_sort_kernel(mb, "qsort1", 512)),
        "rijndael-d" => k::single(path, |mb| k::emit_feistel(mb, "aes_dec", 256, 32, true)),
        "rijndael-e" => k::single(path, |mb| k::emit_feistel(mb, "aes_enc", 256, 32, false)),
        "sha" => k::single(path, |mb| k::emit_sha_mix(mb, "sha_transform", 128)),
        "stringsearch" => k::single(path, |mb| k::emit_stringsearch(mb, "bmh", 4096, 16)),
        "susan" => k::compose(
            path,
            vec![
                Box::new(|mb: &mut ModuleBuilder| k::emit_stencil2d(mb, "smoothing", 64, 48)),
                Box::new(|mb: &mut ModuleBuilder| k::emit_sad_search(mb, "corners", 8, 8)),
            ],
        ),
        "tiff2bw" => k::single(path, |mb| k::emit_histogram(mb, "tiff_hist", 4096)),
        _ => {
            return Err(DatasetError::UnknownBenchmark {
                dataset: "cbench-v1".into(),
                path: path.into(),
            })
        }
    };
    Ok(with_uri_name(m, "cbench-v1", path))
}

fn build_chstone(path: &str, _index: u64) -> Result<Module, DatasetError> {
    let m = match path {
        "adpcm" => k::single(path, |mb| k::emit_adpcm(mb, "adpcm_main", 1024, true)),
        "aes" => k::single(path, |mb| k::emit_feistel(mb, "aes_main", 128, 10, false)),
        "blowfish" => k::single(path, |mb| k::emit_feistel(mb, "bf_main", 128, 16, false)),
        "dfadd" => k::single(path, |mb| {
            k::emit_float_chain(mb, "float64_add", 2048, BinOp::FAdd)
        }),
        "dfdiv" => k::single(path, |mb| {
            k::emit_float_chain(mb, "float64_div", 1024, BinOp::FDiv)
        }),
        "dfmul" => k::single(path, |mb| {
            k::emit_float_chain(mb, "float64_mul", 2048, BinOp::FMul)
        }),
        "dfsin" => k::single(path, |mb| k::emit_sine_taylor(mb, "local_sin", 1024)),
        "gsm" => k::single(path, |mb| k::emit_autocorr(mb, "lpc_autocorr", 1024, 8)),
        "jpeg" => k::single(path, |mb| k::emit_dct8x8(mb, "chenidct", 24)),
        "mips" => k::single(path, |mb| k::emit_vm_interp(mb, "mips_cpu", 128, 4000)),
        "motion" => k::single(path, |mb| k::emit_sad_search(mb, "motion_est", 8, 10)),
        "sha" => k::single(path, |mb| k::emit_sha_mix(mb, "sha_update", 64)),
        _ => {
            return Err(DatasetError::UnknownBenchmark {
                dataset: "chstone-v0".into(),
                path: path.into(),
            })
        }
    };
    Ok(with_uri_name(m, "chstone-v0", path))
}

fn with_uri_name(mut m: Module, dataset: &str, path: &str) -> Module {
    // Benchmarks model *unoptimized* frontend output: demote scalars to
    // stack slots so the optimizer has the headroom real `-O0` code gives it.
    crate::deopt::deoptimize(&mut m);
    m.name = format!("benchmark://{dataset}/{path}");
    m
}

fn build_mibench(path: &str, index: u64) -> Result<Module, DatasetError> {
    // 40 programs: kernels cycled with varying sizes.
    let v = (index % 8) as u32;
    let m = match index % 10 {
        0 => k::single(path, |mb| k::emit_bitcount(mb, "bc", 512 << (v % 3))),
        1 => k::single(path, |mb| k::emit_crc32(mb, "crc", 1024 << (v % 3))),
        2 => k::single(path, |mb| {
            k::emit_fir(mb, "fft_ish", 512 << (v % 3), 8 + 4 * v)
        }),
        3 => k::single(path, |mb| k::emit_sort_kernel(mb, "qs", 128 + 64 * v)),
        4 => k::single(path, |mb| k::emit_stencil2d(mb, "susan_s", 24 + 8 * v, 24)),
        5 => k::single(path, |mb| k::emit_dijkstra(mb, "dij", 12 + 2 * v)),
        6 => k::single(path, |mb| {
            k::emit_hash_probe(mb, "patricia", 256 << (v % 3), 9)
        }),
        7 => k::single(path, |mb| k::emit_stringsearch(mb, "search", 1024, 8 + v)),
        8 => k::single(path, |mb| k::emit_sha_mix(mb, "sha", 32 + 16 * v)),
        _ => k::single(path, |mb| {
            k::emit_adpcm(mb, "adpcm", 512 << (v % 3), v.is_multiple_of(2))
        }),
    };
    Ok(with_uri_name(m, "mibench-v1", path))
}

fn build_blas(path: &str, index: u64) -> Result<Module, DatasetError> {
    // 300 programs: BLAS-like routines over varying problem sizes.
    let n = 8 + (index % 20) as u32 * 4;
    let m = match index % 5 {
        0 => k::single(path, |mb| k::emit_matmul(mb, "gemm", n.min(24))),
        1 => k::single(path, |mb| k::emit_fir(mb, "dot", n * 16, 8)),
        2 => k::single(path, |mb| k::emit_autocorr(mb, "syrk_ish", n * 8, 8)),
        3 => k::single(path, |mb| {
            k::emit_float_chain(mb, "axpy", n * 32, BinOp::FAdd)
        }),
        _ => k::single(path, |mb| {
            k::emit_float_chain(mb, "scal", n * 32, BinOp::FMul)
        }),
    };
    Ok(with_uri_name(m, "blas-v0", path))
}

fn build_npb(path: &str, index: u64) -> Result<Module, DatasetError> {
    // 122 programs: numeric kernels in the NAS mold.
    let n = 8 + (index % 12) as u32 * 2;
    let m = match index % 6 {
        0 => k::single(path, |mb| k::emit_matmul(mb, "mg_resid", n.min(20))),
        1 => k::single(path, |mb| {
            k::emit_stencil2d(mb, "sp_rhs", 16 + n, 16 + n / 2)
        }),
        2 => k::single(path, |mb| k::emit_fir(mb, "ft_ish", 256 + n * 32, 16)),
        3 => k::single(path, |mb| k::emit_sort_kernel(mb, "is_rank", 128 + n * 16)),
        4 => k::single(path, |mb| k::emit_sine_taylor(mb, "ep_pairs", 128 + n * 16)),
        _ => k::single(path, |mb| k::emit_autocorr(mb, "cg_spmv", 256 + n * 32, 8)),
    };
    Ok(with_uri_name(m, "npb-v0", path))
}

macro_rules! synth_builder {
    ($fn_name:ident, $dataset:literal, $profile:expr) => {
        fn $fn_name(path: &str, index: u64) -> Result<Module, DatasetError> {
            let profile = $profile;
            let seed = derive_seed($dataset, index);
            let mut m = synth::generate(&profile, seed, path);
            crate::deopt::deoptimize(&mut m);
            m.name = format!("benchmark://{}/{}", $dataset, path);
            Ok(m)
        }
    };
}

/// Profile resembling AnghaBench: single small-ish functions mined from C
/// repositories, little floating point, modest control flow.
fn anghabench_profile() -> Profile {
    Profile {
        functions: (1, 3),
        stmts: (6, 18),
        loop_prob: 0.12,
        if_prob: 0.18,
        switch_prob: 0.03,
        mem_prob: 0.22,
        call_prob: 0.05,
        float_ratio: 0.05,
        ..Profile::balanced()
    }
}

/// Profile resembling GitHub/open-source C: bigger call graphs, mixed style.
fn github_profile() -> Profile {
    Profile {
        functions: (4, 10),
        stmts: (10, 30),
        call_prob: 0.15,
        float_ratio: 0.10,
        ..Profile::balanced()
    }
}

/// Linux kernel style: branch- and bit-manipulation-heavy, no floats.
fn linux_profile() -> Profile {
    Profile {
        functions: (3, 8),
        stmts: (10, 26),
        if_prob: 0.24,
        switch_prob: 0.08,
        mem_prob: 0.22,
        float_ratio: 0.0,
        ..Profile::balanced()
    }
}

/// CLgen-style OpenCL kernels: loop/array dominated with some float math.
fn clgen_profile() -> Profile {
    Profile {
        functions: (1, 2),
        stmts: (10, 24),
        loop_prob: 0.28,
        nested_loop_prob: 0.4,
        mem_prob: 0.30,
        if_prob: 0.08,
        float_ratio: 0.35,
        ..Profile::balanced()
    }
}

/// OpenCV style: float stencils and matrix-ish loops.
fn opencv_profile() -> Profile {
    Profile {
        functions: (2, 6),
        stmts: (12, 30),
        loop_prob: 0.24,
        nested_loop_prob: 0.45,
        mem_prob: 0.28,
        float_ratio: 0.40,
        ..Profile::balanced()
    }
}

/// POJ-104 student solutions: small, branchy, shallow loops.
fn poj104_profile() -> Profile {
    Profile {
        functions: (1, 3),
        stmts: (8, 20),
        loop_prob: 0.20,
        if_prob: 0.22,
        mem_prob: 0.12,
        call_prob: 0.04,
        float_ratio: 0.06,
        ..Profile::balanced()
    }
}

/// TensorFlow style: float-heavy compute with deep call graphs.
fn tensorflow_profile() -> Profile {
    Profile {
        functions: (5, 12),
        stmts: (12, 32),
        loop_prob: 0.22,
        nested_loop_prob: 0.4,
        mem_prob: 0.25,
        call_prob: 0.14,
        float_ratio: 0.45,
        ..Profile::balanced()
    }
}

/// Csmith: the paper's random C program generator; balanced, runnable.
fn csmith_profile() -> Profile {
    Profile {
        functions: (3, 8),
        stmts: (10, 32),
        switch_prob: 0.06,
        weirdness: 0.10,
        ..Profile::balanced()
    }
}

/// llvm-stress: adversarial IR exercising odd corners; cast- and
/// switch-heavy.
fn llvm_stress_profile() -> Profile {
    Profile {
        functions: (1, 4),
        stmts: (14, 40),
        loop_prob: 0.10,
        switch_prob: 0.14,
        if_prob: 0.18,
        mem_prob: 0.10,
        float_ratio: 0.25,
        weirdness: 0.45,
        ..Profile::balanced()
    }
}

synth_builder!(build_anghabench, "anghabench-v1", anghabench_profile());
synth_builder!(build_github, "github-v0", github_profile());
synth_builder!(build_linux, "linux-v0", linux_profile());
synth_builder!(build_clgen, "clgen-v0", clgen_profile());
synth_builder!(build_opencv, "opencv-v0", opencv_profile());
synth_builder!(build_poj104, "poj104-v1", poj104_profile());
synth_builder!(build_tensorflow, "tensorflow-v0", tensorflow_profile());
synth_builder!(build_csmith, "csmith-v0", csmith_profile());
synth_builder!(build_llvm_stress, "llvm-stress-v0", llvm_stress_profile());

/// The full dataset registry (Table I).
pub fn datasets() -> &'static [DatasetInfo] {
    &[
        DatasetInfo {
            name: "anghabench-v1",
            description:
                "Compilable C functions mined from public repositories (synthetic reproduction)",
            size: DatasetSize::Indexed(1_041_333),
            runnable: true,
            build: build_anghabench,
        },
        DatasetInfo {
            name: "blas-v0",
            description: "Basic linear algebra subprogram kernels",
            size: DatasetSize::Indexed(300),
            runnable: true,
            build: build_blas,
        },
        DatasetInfo {
            name: "cbench-v1",
            description: "The collective benchmark suite: 23 realistic programs",
            size: DatasetSize::Named(CBENCH),
            runnable: true,
            build: build_cbench,
        },
        DatasetInfo {
            name: "chstone-v0",
            description: "High-level-synthesis benchmark programs",
            size: DatasetSize::Named(CHSTONE),
            runnable: true,
            build: build_chstone,
        },
        DatasetInfo {
            name: "clgen-v0",
            description: "Synthesized OpenCL-style kernels",
            size: DatasetSize::Indexed(996),
            runnable: true,
            build: build_clgen,
        },
        DatasetInfo {
            name: "github-v0",
            description: "Open-source C programs (synthetic reproduction)",
            size: DatasetSize::Indexed(49_738),
            runnable: true,
            build: build_github,
        },
        DatasetInfo {
            name: "linux-v0",
            description: "Linux kernel translation units (synthetic reproduction)",
            size: DatasetSize::Indexed(13_894),
            runnable: true,
            build: build_linux,
        },
        DatasetInfo {
            name: "mibench-v1",
            description: "Embedded benchmark suite",
            size: DatasetSize::Indexed(40),
            runnable: true,
            build: build_mibench,
        },
        DatasetInfo {
            name: "npb-v0",
            description: "NAS parallel benchmark kernels",
            size: DatasetSize::Indexed(122),
            runnable: true,
            build: build_npb,
        },
        DatasetInfo {
            name: "opencv-v0",
            description: "Computer-vision library translation units (synthetic reproduction)",
            size: DatasetSize::Indexed(442),
            runnable: true,
            build: build_opencv,
        },
        DatasetInfo {
            name: "poj104-v1",
            description: "Programming-judge student solutions (synthetic reproduction)",
            size: DatasetSize::Indexed(49_816),
            runnable: true,
            build: build_poj104,
        },
        DatasetInfo {
            name: "tensorflow-v0",
            description: "TensorFlow translation units (synthetic reproduction)",
            size: DatasetSize::Indexed(1_985),
            runnable: true,
            build: build_tensorflow,
        },
        DatasetInfo {
            name: "csmith-v0",
            description: "Random program generator with 32-bit seeds",
            size: DatasetSize::Seeded,
            runnable: true,
            build: build_csmith,
        },
        DatasetInfo {
            name: "llvm-stress-v0",
            description: "Adversarial random IR generator with 32-bit seeds",
            size: DatasetSize::Seeded,
            runnable: false,
            build: build_llvm_stress,
        },
    ]
}

/// Looks up a dataset by name.
pub fn dataset(name: &str) -> Option<&'static DatasetInfo> {
    datasets().iter().find(|d| d.name == name)
}

/// Resolves a benchmark URI (`benchmark://<dataset>/<path>`, or the
/// scheme-less `<dataset>/<path>` shorthand) to a module.
///
/// # Errors
/// Returns a [`DatasetError`] for malformed URIs, unknown datasets, or
/// unknown members.
pub fn benchmark(uri: &str) -> Result<Module, DatasetError> {
    let rest = uri.strip_prefix("benchmark://").unwrap_or(uri);
    let (ds_name, path) = rest
        .split_once('/')
        .ok_or_else(|| DatasetError::BadUri(uri.to_string()))?;
    let ds = dataset(ds_name).ok_or_else(|| DatasetError::UnknownDataset(ds_name.to_string()))?;
    ds.benchmark(path)
}

/// Total number of benchmarks across all finite datasets (the paper reports
/// 1,145,499 excluding the seeded generators).
pub fn total_finite_benchmarks() -> u64 {
    datasets().iter().filter_map(|d| d.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;

    #[test]
    fn registry_matches_table1() {
        assert_eq!(datasets().len(), 14);
        assert_eq!(dataset("cbench-v1").unwrap().len(), Some(23));
        assert_eq!(dataset("chstone-v0").unwrap().len(), Some(12));
        assert_eq!(dataset("mibench-v1").unwrap().len(), Some(40));
        assert_eq!(dataset("npb-v0").unwrap().len(), Some(122));
        assert_eq!(dataset("blas-v0").unwrap().len(), Some(300));
        assert_eq!(dataset("anghabench-v1").unwrap().len(), Some(1_041_333));
        assert_eq!(dataset("csmith-v0").unwrap().len(), None, "a generator");
        // The paper's text reports 1,145,499 finite benchmarks; summing its own
        // Table I rows gives 1,158,701, which is the figure we match.
        assert_eq!(total_finite_benchmarks(), 1_158_701);
    }

    #[test]
    fn every_cbench_program_builds_and_runs() {
        for name in CBENCH {
            let m = benchmark(&format!("benchmark://cbench-v1/{name}")).unwrap();
            verify_module(&m).unwrap_or_else(|e| panic!("{name}: {e}"));
            run_main(&m, &ExecLimits::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn every_chstone_program_builds_and_runs() {
        for name in CHSTONE {
            let m = benchmark(&format!("benchmark://chstone-v0/{name}")).unwrap();
            verify_module(&m).unwrap_or_else(|e| panic!("{name}: {e}"));
            run_main(&m, &ExecLimits::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn indexed_families_build_and_verify() {
        for ds in ["mibench-v1", "blas-v0", "npb-v0", "github-v0", "linux-v0"] {
            for i in [0u64, 1, 7] {
                let m = benchmark(&format!("{ds}/{i}")).unwrap();
                verify_module(&m).unwrap_or_else(|e| panic!("{ds}/{i}: {e}"));
            }
        }
    }

    #[test]
    fn csmith_runs_and_is_seed_deterministic() {
        let a = benchmark("benchmark://csmith-v0/12345").unwrap();
        let b = benchmark("benchmark://csmith-v0/12345").unwrap();
        assert_eq!(cg_ir::module_hash(&a), cg_ir::module_hash(&b));
        run_main(&a, &ExecLimits::default()).unwrap();
    }

    #[test]
    fn uri_errors() {
        assert!(matches!(
            benchmark("nonsense"),
            Err(DatasetError::BadUri(_))
        ));
        assert!(matches!(
            benchmark("benchmark://nope-v9/x"),
            Err(DatasetError::UnknownDataset(_))
        ));
        assert!(matches!(
            benchmark("benchmark://cbench-v1/nope"),
            Err(DatasetError::UnknownBenchmark { .. })
        ));
        assert!(matches!(
            benchmark("benchmark://mibench-v1/999"),
            Err(DatasetError::UnknownBenchmark { .. })
        ));
    }

    #[test]
    fn ghostscript_is_much_bigger_than_crc32() {
        // The premise of Figure 6: step costs scale with program size, and
        // cBench spans a wide size range.
        let gs = benchmark("cbench-v1/ghostscript").unwrap();
        let crc = benchmark("cbench-v1/crc32").unwrap();
        assert!(
            gs.inst_count() > 8 * crc.inst_count(),
            "ghostscript {} vs crc32 {}",
            gs.inst_count(),
            crc.inst_count()
        );
    }
}
