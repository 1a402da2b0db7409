//! The sharded on-disk corpus format: JSONL shards plus a manifest.
//!
//! A corpus directory holds `num_shards` line-oriented JSON files and one
//! `manifest.json`:
//!
//! ```text
//! corpus/
//! ├── manifest.json      ShardManifest: version, generation config,
//! │                      totals, per-shard counts + content fingerprints
//! ├── shard-0000.jsonl   one ShardRecord per line
//! ├── shard-0001.jsonl
//! └── ...
//! ```
//!
//! Each shard line is one externally-tagged [`ShardRecord`]: a
//! `{"Program": …}` record declaring a generated program (with its global
//! index and content fingerprint), or a `{"Point": …}` record holding one
//! labeled sample that references a previously declared program by index.
//! Programs are assigned to shards round-robin (`index % num_shards`) and
//! every program's points live in the same shard as its `Program` record,
//! so shards can be read — and training minibatches formed — one file at
//! a time.
//!
//! All 64-bit fingerprints are serialized as 16-digit lower-case hex
//! *strings* (JSON numbers are doubles; a `u64` would lose precision
//! above 2^53). Shard fingerprints are a byte-level FNV-1a
//! ([`dlcm_ir::fingerprint::fnv1a`]) over the exact file contents, which
//! is what makes the generation parity guarantee checkable: the same
//! [`crate::BuildConfig`] produces byte-identical shards and manifest at
//! any `--threads` setting.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use dlcm_ir::fingerprint::{fnv1a, FNV1A_INIT};
use dlcm_ir::{Program, Schedule};
use serde::{Deserialize, Serialize};

use crate::dataset::{Corpus, DataPoint, Dataset, DatasetConfig};

/// Version tag written into every manifest; bump on any change to the
/// record or manifest layout. Version 2 added the generation log
/// ([`GenerationInfo`]) and per-shard generation ids — version-1 corpora
/// are rejected on open and regenerate through the normal build path.
pub const SHARD_FORMAT_VERSION: u32 = 2;

/// Renders a 64-bit fingerprint the way the shard format stores it:
/// 16 lower-case hex digits (re-exported workspace convention,
/// [`dlcm_ir::fingerprint::to_hex`]).
pub fn fingerprint_hex(fp: u64) -> String {
    dlcm_ir::fingerprint::to_hex(fp)
}

/// Parses a [`fingerprint_hex`]-formatted fingerprint.
pub fn parse_fingerprint(s: &str) -> Option<u64> {
    dlcm_ir::fingerprint::parse_hex(s)
}

/// One line of a shard file.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) for one
/// reason: the optional `family` tag on `Program` records must be
/// *absent* from the serialized bytes when `None`, and tolerated as
/// absent on read — so corpora built from untagged (default-weight)
/// configurations stay byte-identical to pre-family-tag output, and
/// pre-tag corpora still load. Everything else matches the derive's
/// externally-tagged layout exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRecord {
    /// Declares a generated program; emitted before any of its points.
    Program {
        /// Global program index (stable across shards; `DataPoint::program`
        /// and point records refer to it).
        index: usize,
        /// [`Program::content_fingerprint`] in hex (name-insensitive) —
        /// lets readers detect corruption and lets dedup recognize
        /// re-generated identical programs across shards.
        fingerprint: String,
        /// Scenario-family tag ([`crate::Pattern::name`]) of the
        /// program, stamped when the generating configuration opted
        /// into family tagging
        /// ([`crate::ProgramGenConfig::tags_families`]); `None` on
        /// untagged and pre-tag corpora, and omitted from the
        /// serialized record bytes in that case.
        family: Option<String>,
        /// The program itself.
        program: Program,
    },
    /// One labeled `(program, schedule, speedup)` sample.
    Point {
        /// Global index of the program this sample belongs to.
        program: usize,
        /// Feature-tree structure key in hex (see
        /// `dlcm_model::ProgramFeatures::structure_key`), precomputed at
        /// generation time so streamed minibatches can be grouped into
        /// structure-identical batches without featurizing the corpus
        /// up front.
        structure: String,
        /// Measured speedup over the unoptimized program.
        speedup: f64,
        /// The transformation sequence.
        schedule: Schedule,
    },
}

/// The tags of [`ShardRecord`]'s variants, in declaration order.
const RECORD_TAGS: [&str; 2] = [serde::json_key!("Program"), serde::json_key!("Point")];

/// The members of a [`ShardRecord::Program`] payload, in writer order.
const PROGRAM_KEYS: [&str; 4] = [
    serde::json_key!("index"),
    serde::json_key!("fingerprint"),
    serde::json_key!("family"),
    serde::json_key!("program"),
];

impl serde::Serialize for ShardRecord {
    fn write_json(&self, w: &mut serde::json::Writer) {
        let [index_key, fingerprint_key, family_key, program_key] = PROGRAM_KEYS;
        w.begin_object();
        match self {
            ShardRecord::Program {
                index,
                fingerprint,
                family,
                program,
            } => {
                w.key_lit(RECORD_TAGS[0]);
                w.begin_object();
                w.field_lit(index_key, index);
                w.field_lit(fingerprint_key, fingerprint);
                if let Some(family) = family {
                    w.field_lit(family_key, family);
                }
                w.field_lit(program_key, program);
            }
            ShardRecord::Point {
                program,
                structure,
                speedup,
                schedule,
            } => {
                w.key_lit(RECORD_TAGS[1]);
                w.begin_object();
                w.field_lit(serde::json_key!("program"), program);
                w.field_lit(serde::json_key!("structure"), structure);
                w.field_lit(serde::json_key!("speedup"), speedup);
                w.field_lit(serde::json_key!("schedule"), schedule);
            }
        }
        w.end_object();
        w.end_object();
    }
}

/// The derive's layout of a [`ShardRecord::Point`] payload.
#[derive(Deserialize)]
struct StoredPoint {
    program: usize,
    structure: String,
    speedup: f64,
    schedule: Schedule,
}

impl serde::Deserialize for ShardRecord {
    fn from_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::Error> {
        use serde::json::Tag;
        use serde::Error;
        let record = match p.begin_enum("ShardRecord", &RECORD_TAGS)? {
            Tag::Keyed(0) => {
                let (mut index, mut fingerprint, mut family, mut program) =
                    (None, None, None, None);
                let mut next = 0;
                p.begin_object()?;
                while let Some(at) = p.next_field(&PROGRAM_KEYS, &mut next)? {
                    match at {
                        0 if index.is_none() => index = Some(usize::from_json(p)?),
                        1 if fingerprint.is_none() => {
                            fingerprint = Some(String::from_json(p)?);
                        }
                        2 if family.is_none() => family = Some(String::from_json(p)?),
                        3 if program.is_none() => program = Some(Program::from_json(p)?),
                        _ => p.skip_value()?,
                    }
                }
                ShardRecord::Program {
                    index: index.ok_or_else(|| Error::missing_field("index"))?,
                    fingerprint: fingerprint.ok_or_else(|| Error::missing_field("fingerprint"))?,
                    // Absent on untagged and pre-tag corpora.
                    family,
                    program: program.ok_or_else(|| Error::missing_field("program"))?,
                }
            }
            // 1: `Point`, the other tag.
            Tag::Keyed(_) => {
                let StoredPoint {
                    program,
                    structure,
                    speedup,
                    schedule,
                } = StoredPoint::from_json(p)?;
                ShardRecord::Point {
                    program,
                    structure,
                    speedup,
                    schedule,
                }
            }
            Tag::Unit(_) => return Err(Error::msg("expected externally tagged ShardRecord")),
        };
        p.end_enum("ShardRecord")?;
        Ok(record)
    }
}

/// Per-shard entry of the [`ShardManifest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// File name relative to the corpus directory (`shard-0000.jsonl`).
    pub file: String,
    /// Number of `Program` records in the shard.
    pub num_programs: usize,
    /// Number of `Point` records in the shard.
    pub num_points: usize,
    /// Byte-level FNV-1a fingerprint of the file contents, in hex.
    pub fingerprint: String,
    /// The corpus generation this shard belongs to (index into
    /// [`ShardManifest::generations`]): `0` for the synthetic seed,
    /// `N` for the `N`-th appended generation.
    pub generation: usize,
}

/// One entry of the manifest's generation log: a batch of shards
/// appended together, with a content fingerprint *chained* onto the
/// parent generation's so the whole corpus history is a hash chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationInfo {
    /// Generation id; equals the index in
    /// [`ShardManifest::generations`]. Generation 0 is the synthetic
    /// seed corpus.
    pub id: usize,
    /// Human-readable provenance (`"seed"` for gen 0; flywheel
    /// generations record the model fingerprint they were captured
    /// under).
    pub label: String,
    /// `Program` records this generation added.
    pub num_programs: usize,
    /// `Point` records this generation added.
    pub num_points: usize,
    /// Samples dropped because their content key already occurred —
    /// within this generation or anywhere in the corpus history.
    pub duplicates_dropped: usize,
    /// Chained content fingerprint in hex: gen 0 folds its own shard
    /// fingerprints; gen N folds the parent's chain first, then its own
    /// shard fingerprints ([`chain_fingerprint`]). Any change to any
    /// ancestor generation changes every descendant's chain.
    pub chain: String,
}

/// Folds a generation's shard fingerprints onto its parent's chain:
/// FNV-1a over the parent chain hex (absent for generation 0) followed
/// by each shard fingerprint hex, in shard order.
pub fn chain_fingerprint<'a>(
    parent_chain: Option<&str>,
    shard_fingerprints: impl IntoIterator<Item = &'a str>,
) -> String {
    let mut state = FNV1A_INIT;
    if let Some(parent) = parent_chain {
        state = fnv1a(state, parent.as_bytes());
    }
    for fp in shard_fingerprints {
        state = fnv1a(state, fp.as_bytes());
    }
    fingerprint_hex(state)
}

/// `manifest.json`: everything needed to validate and reproduce a corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// [`SHARD_FORMAT_VERSION`] at write time.
    pub version: u32,
    /// The generation configuration (including the master seed) of the
    /// *seed* generation, so gen 0 can be regenerated — and checked
    /// byte-for-byte — from its manifest alone. Appended generations
    /// carry their provenance in [`ShardManifest::generations`].
    pub config: DatasetConfig,
    /// Total `Program` records across shards.
    pub total_programs: usize,
    /// Total `Point` records across shards.
    pub total_points: usize,
    /// Samples dropped by cross-shard content dedup, summed over every
    /// generation.
    pub duplicates_dropped: usize,
    /// Per-shard counts and content fingerprints.
    pub shards: Vec<ShardInfo>,
    /// Append-only generation log; entry `i` describes generation `i`.
    pub generations: Vec<GenerationInfo>,
}

impl ShardManifest {
    /// Path of the manifest inside a corpus directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    /// Content fingerprint of the whole corpus: the FNV-1a fold of every
    /// shard's byte-level fingerprint, in manifest (shard-index) order.
    ///
    /// Because shards are byte-identical for a given [`DatasetConfig`] at
    /// any thread count, this is a stable identity for the *training
    /// data*: the model-artifact manifest (`dlcm_model::ModelArtifact`)
    /// records it so a saved model can be traced to — and re-evaluated
    /// against — the exact corpus that trained it.
    pub fn content_fingerprint(&self) -> u64 {
        let mut state = FNV1A_INIT;
        for shard in &self.shards {
            state = fnv1a(state, shard.fingerprint.as_bytes());
        }
        state
    }

    /// Writes `manifest.json` into `dir` (pretty-printed, deterministic
    /// field order).
    ///
    /// # Errors
    ///
    /// Propagates serialization/IO failures.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let file = std::fs::File::create(Self::path(dir))?;
        serde_json::to_writer_pretty(io::BufWriter::new(file), self).map_err(io::Error::other)
    }

    /// Loads `manifest.json` from `dir`.
    ///
    /// # Errors
    ///
    /// Propagates deserialization/IO failures.
    pub fn load(dir: &Path) -> io::Result<ShardManifest> {
        let file = std::fs::File::open(Self::path(dir))?;
        serde_json::from_reader(io::BufReader::new(file)).map_err(io::Error::other)
    }
}

/// Streaming writer for one shard file.
///
/// Records are appended as JSON lines; the writer folds every byte into
/// an FNV-1a state as it goes, so [`ShardWriter::finish`] returns the
/// content fingerprint without re-reading the file.
///
/// # Examples
///
/// ```
/// use dlcm_datagen::{ShardReader, ShardRecord, ShardWriter};
/// use dlcm_ir::{Expr, ProgramBuilder, Schedule};
///
/// let mut b = ProgramBuilder::new("p");
/// let i = b.iter("i", 0, 8);
/// let inp = b.input("in", &[8]);
/// let out = b.buffer("out", &[8]);
/// let acc = b.access(inp, &[i.into()], &[i]);
/// b.assign("c", &[i], out, &[i.into()], Expr::Load(acc));
/// let program = b.build().unwrap();
///
/// let dir = std::env::temp_dir().join("dlcm_shard_writer_doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let mut writer = ShardWriter::create(&dir, 0).unwrap();
/// writer
///     .write(&ShardRecord::Program {
///         index: 0,
///         fingerprint: dlcm_datagen::fingerprint_hex(program.content_fingerprint()),
///         family: None,
///         program: program.clone(),
///     })
///     .unwrap();
/// writer
///     .write(&ShardRecord::Point {
///         program: 0,
///         structure: dlcm_datagen::fingerprint_hex(17),
///         speedup: 1.5,
///         schedule: Schedule::empty(),
///     })
///     .unwrap();
/// let info = writer.finish().unwrap();
/// assert_eq!((info.num_programs, info.num_points), (1, 1));
///
/// let records: Vec<ShardRecord> = ShardReader::open(&dir.join(&info.file))
///     .unwrap()
///     .collect::<std::io::Result<_>>()
///     .unwrap();
/// assert_eq!(records.len(), 2);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct ShardWriter {
    file: String,
    out: io::BufWriter<std::fs::File>,
    hash: u64,
    num_programs: usize,
    num_points: usize,
}

impl ShardWriter {
    /// Creates (truncating) `shard-{index:04}.jsonl` inside `dir`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(dir: &Path, index: usize) -> io::Result<ShardWriter> {
        let file = format!("shard-{index:04}.jsonl");
        let out = io::BufWriter::new(std::fs::File::create(dir.join(&file))?);
        Ok(ShardWriter {
            file,
            out,
            hash: FNV1A_INIT,
            num_programs: 0,
            num_points: 0,
        })
    }

    /// Appends one record as a JSON line.
    ///
    /// # Errors
    ///
    /// Propagates serialization/IO failures.
    pub fn write(&mut self, record: &ShardRecord) -> io::Result<()> {
        let mut line = serde_json::to_string(record).map_err(io::Error::other)?;
        line.push('\n');
        self.hash = fnv1a(self.hash, line.as_bytes());
        match record {
            ShardRecord::Program { .. } => self.num_programs += 1,
            ShardRecord::Point { .. } => self.num_points += 1,
        }
        self.out.write_all(line.as_bytes())
    }

    /// Flushes the file and returns its manifest entry (generation 0;
    /// append paths override [`ShardInfo::generation`] on the entry).
    ///
    /// # Errors
    ///
    /// Propagates IO failures.
    pub fn finish(mut self) -> io::Result<ShardInfo> {
        self.out.flush()?;
        Ok(ShardInfo {
            file: self.file,
            num_programs: self.num_programs,
            num_points: self.num_points,
            fingerprint: fingerprint_hex(self.hash),
            generation: 0,
        })
    }
}

/// Streaming reader over one shard file: an iterator of
/// [`ShardRecord`]s, one per line.
#[derive(Debug)]
pub struct ShardReader {
    lines: io::Lines<BufReader<std::fs::File>>,
}

impl ShardReader {
    /// Opens a shard file.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures.
    pub fn open(path: &Path) -> io::Result<ShardReader> {
        Ok(ShardReader {
            lines: BufReader::new(std::fs::File::open(path)?).lines(),
        })
    }
}

impl Iterator for ShardReader {
    type Item = io::Result<ShardRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        let line = match self.lines.next()? {
            Ok(line) => line,
            Err(e) => return Some(Err(e)),
        };
        Some(serde_json::from_str(&line).map_err(io::Error::other))
    }
}

/// A corpus directory opened through its manifest.
#[derive(Debug, Clone)]
pub struct ShardedDataset {
    dir: PathBuf,
    manifest: ShardManifest,
}

impl ShardedDataset {
    /// Opens a corpus directory, loading (but not yet verifying) its
    /// manifest.
    ///
    /// # Errors
    ///
    /// Propagates manifest load failures and rejects unknown format
    /// versions.
    pub fn open(dir: &Path) -> io::Result<ShardedDataset> {
        let manifest = ShardManifest::load(dir)?;
        if manifest.version != SHARD_FORMAT_VERSION {
            return Err(io::Error::other(format!(
                "unsupported shard format version {} (this build reads {SHARD_FORMAT_VERSION})",
                manifest.version
            )));
        }
        Ok(ShardedDataset {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The loaded manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The corpus directory this dataset was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute paths of the shard files, in manifest order.
    pub fn shard_paths(&self) -> Vec<PathBuf> {
        self.manifest
            .shards
            .iter()
            .map(|s| self.dir.join(&s.file))
            .collect()
    }

    /// Recomputes every shard's byte fingerprint and checks it against
    /// the manifest.
    ///
    /// # Errors
    ///
    /// Fails on IO errors or on any fingerprint mismatch.
    pub fn verify(&self) -> io::Result<()> {
        for info in &self.manifest.shards {
            let mut file = std::fs::File::open(self.dir.join(&info.file))?;
            let mut hash = FNV1A_INIT;
            let mut buf = [0u8; 64 * 1024];
            loop {
                let n = file.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                hash = fnv1a(hash, &buf[..n]);
            }
            if fingerprint_hex(hash) != info.fingerprint {
                return Err(io::Error::other(format!(
                    "shard {} content fingerprint mismatch: manifest {}, file {}",
                    info.file,
                    info.fingerprint,
                    fingerprint_hex(hash)
                )));
            }
        }
        Ok(())
    }

    /// Reads every shard and reassembles the in-memory [`Dataset`]:
    /// programs (and their family tags) ordered by global index, points
    /// ordered by `(program index, within-program generation order)` —
    /// exactly the order the builder produced them in.
    ///
    /// # Errors
    ///
    /// Propagates IO/parse errors and rejects corpora whose records
    /// disagree with each other or with the manifest totals.
    pub fn load_dataset(&self) -> io::Result<Dataset> {
        Ok(self.read()?.dataset)
    }

    /// The one decoder of the shard format, returning the `Corpus` the
    /// builder wrote. Every consumer of corpus records —
    /// [`Self::load_dataset`], [`crate::ShardBatches`], the
    /// [`crate::DedupIndex`] — projects from what this returns,
    /// so they all accept and reject the same corpora. Checked here:
    /// program indices are in range and declared once, every program
    /// body hashes to its record's fingerprint, every point references
    /// a program of the manifest and carries a well-formed structure
    /// key, and the program and point counts equal the manifest totals.
    pub(crate) fn read(&self) -> io::Result<Corpus> {
        let n = self.manifest.total_programs;
        let mut programs: Vec<Option<(Program, u64, Option<String>)>> = vec![None; n];
        let mut points_by_program: Vec<Vec<(DataPoint, u64)>> = vec![Vec::new(); n];
        for path in self.shard_paths() {
            for record in ShardReader::open(&path)? {
                match record? {
                    ShardRecord::Program {
                        index,
                        fingerprint,
                        family,
                        program,
                    } => {
                        if index >= n || programs[index].is_some() {
                            return Err(io::Error::other(format!(
                                "invalid or duplicate program index {index}"
                            )));
                        }
                        let content = program.content_fingerprint();
                        if fingerprint != fingerprint_hex(content) {
                            return Err(io::Error::other(format!(
                                "program {index} fingerprint mismatch"
                            )));
                        }
                        programs[index] = Some((program, content, family));
                    }
                    ShardRecord::Point {
                        program,
                        structure,
                        speedup,
                        schedule,
                    } => {
                        if program >= n {
                            return Err(io::Error::other(format!(
                                "point references unknown program {program}"
                            )));
                        }
                        let structure = parse_fingerprint(&structure).ok_or_else(|| {
                            io::Error::other(format!("bad structure key `{structure}`"))
                        })?;
                        let point = DataPoint {
                            program,
                            schedule,
                            speedup,
                        };
                        points_by_program[program].push((point, structure));
                    }
                }
            }
        }
        let mut corpus = Corpus {
            dataset: Dataset {
                programs: Vec::with_capacity(n),
                points: Vec::with_capacity(self.manifest.total_points),
                families: Vec::with_capacity(n),
            },
            structures: Vec::with_capacity(self.manifest.total_points),
            fingerprints: Vec::with_capacity(n),
        };
        for (i, declared) in programs.into_iter().enumerate() {
            let (program, fingerprint, family) =
                declared.ok_or_else(|| io::Error::other(format!("missing program {i}")))?;
            corpus.dataset.programs.push(program);
            corpus.dataset.families.push(family);
            corpus.fingerprints.push(fingerprint);
        }
        for (point, structure) in points_by_program.into_iter().flatten() {
            corpus.dataset.points.push(point);
            corpus.structures.push(structure);
        }
        if corpus.dataset.points.len() != self.manifest.total_points {
            return Err(io::Error::other(format!(
                "manifest claims {} points, shards hold {}",
                self.manifest.total_points,
                corpus.dataset.points.len()
            )));
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_fingerprint_covers_every_shard() {
        let manifest = |fps: &[&str]| ShardManifest {
            version: SHARD_FORMAT_VERSION,
            config: DatasetConfig::tiny(0),
            total_programs: 0,
            total_points: 0,
            duplicates_dropped: 0,
            shards: fps
                .iter()
                .enumerate()
                .map(|(i, fp)| ShardInfo {
                    file: format!("shard-{i:04}.jsonl"),
                    num_programs: 0,
                    num_points: 0,
                    fingerprint: (*fp).to_string(),
                    generation: 0,
                })
                .collect(),
            generations: Vec::new(),
        };
        let a = manifest(&["00000000000000aa", "00000000000000bb"]);
        assert_eq!(
            a.content_fingerprint(),
            manifest(&["00000000000000aa", "00000000000000bb"]).content_fingerprint(),
            "same shard set, same corpus identity"
        );
        assert_ne!(
            a.content_fingerprint(),
            manifest(&["00000000000000aa", "00000000000000bc"]).content_fingerprint(),
            "any shard change must change the corpus identity"
        );
        assert_ne!(
            a.content_fingerprint(),
            manifest(&["00000000000000bb", "00000000000000aa"]).content_fingerprint(),
            "shard order is part of the identity"
        );
    }

    #[test]
    fn chain_fingerprints_form_a_history_sensitive_chain() {
        let gen0 = chain_fingerprint(None, ["00000000000000aa", "00000000000000bb"]);
        assert_eq!(
            gen0,
            chain_fingerprint(None, ["00000000000000aa", "00000000000000bb"]),
            "chaining is deterministic"
        );
        assert_ne!(
            gen0,
            chain_fingerprint(None, ["00000000000000bb", "00000000000000aa"]),
            "shard order is part of the chain"
        );

        let gen1 = chain_fingerprint(Some(&gen0), ["00000000000000cc"]);
        assert_ne!(
            gen1,
            chain_fingerprint(None, ["00000000000000cc"]),
            "a chained generation differs from a rootless one"
        );
        let other_parent = chain_fingerprint(None, ["00000000000000ab", "00000000000000bb"]);
        assert_ne!(
            gen1,
            chain_fingerprint(Some(&other_parent), ["00000000000000cc"]),
            "any ancestor change ripples into every descendant chain"
        );
    }

    #[test]
    fn fingerprint_hex_roundtrip() {
        for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_fingerprint(&fingerprint_hex(fp)), Some(fp));
        }
        assert_eq!(parse_fingerprint("xyz"), None);
        assert_eq!(parse_fingerprint("0123"), None);
    }

    #[test]
    fn full_u64_fingerprints_survive_json() {
        // JSON numbers are doubles; the format stores fingerprints as hex
        // strings precisely so values above 2^53 stay exact.
        let fp = 0xF0F1_F2F3_F4F5_F6F7u64;
        let record = ShardRecord::Point {
            program: 0,
            structure: fingerprint_hex(fp),
            speedup: 1.0,
            schedule: Schedule::empty(),
        };
        let line = serde_json::to_string(&record).unwrap();
        let back: ShardRecord = serde_json::from_str(&line).unwrap();
        match back {
            ShardRecord::Point { structure, .. } => {
                assert_eq!(parse_fingerprint(&structure), Some(fp));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
