//! Content-addressed cache keys for analysis requests.
//!
//! The configuration-search tool of the paper's Sect. 4 — and any service
//! built on top of the analyzer — issues *many* analysis requests over
//! near-identical configurations. To recognize a repeated request in O(1),
//! a request is reduced to a **canonical byte encoding** (stable field
//! ordering, normalized defaults) and hashed into a 128-bit [`CacheKey`].
//!
//! Canonicalization normalizes everything that cannot change the verdict:
//!
//! * **field ordering** is fixed by the encoder (a request never depends
//!   on map iteration or input-file ordering);
//! * each partition's **window set is sorted** — window order within a
//!   partition is semantically irrelevant;
//! * the **analysis horizon** is clamped to ≥ 1 hyperperiod, exactly as
//!   [`Analyzer::horizon`](crate::Analyzer::horizon) clamps it;
//! * the guard/update **evaluation engine and tie-break order are
//!   excluded**: by the paper's Sect. 3 determinism theorem (and the
//!   differential test suite) they never change the verdict, so `ast` and
//!   `bytecode` requests for the same configuration share one cache entry.
//!
//! Everything that *could* matter — including names, which surface in
//! reports — is kept, so two requests map to the same key only when the
//! analysis outcome is provably identical.
//!
//! The hash is FNV-1a (the same zero-dependency construction the
//! workspace's PRNG policy favors), widened to 128 bits with two
//! independent offset bases and a splitmix64-style finalizer. Hashes are
//! never trusted blindly: [`CanonicalRequest`] carries the full canonical
//! bytes, and the cache ([`crate::cache`]) compares them on every hit, so
//! a collision can cost a miss but can never serve a wrong verdict.

use std::fmt;

use swa_ima::{Configuration, SchedulerKind};

/// Bumped whenever the canonical encoding changes, so entries produced by
/// older encoders can never alias newer ones. Version 1 wrote fixed-width
/// little-endian fields; version 2 writes LEB128 varints.
const CANON_VERSION: u8 = 2;

/// A 128-bit content hash of a canonical analysis request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// A canonicalized analysis request: the content hash plus the canonical
/// bytes it was computed from (kept so cache hits can be verified by
/// comparison, making collisions harmless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalRequest {
    /// The content hash of [`bytes`](Self::bytes).
    pub key: CacheKey,
    /// The canonical encoding of the request.
    pub bytes: Vec<u8>,
}

/// A canonicalized *configuration* (no analysis horizon): the content hash
/// plus the canonical bytes it was computed from. This is the keying unit
/// of the checkpoint store ([`crate::checkpoint`]), where one configuration
/// owns checkpoints at several simulated-time horizons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalConfig {
    /// The content hash of [`bytes`](Self::bytes).
    pub key: CacheKey,
    /// The canonical encoding of the configuration.
    pub bytes: Vec<u8>,
}

/// Canonicalizes one analysis request: a configuration plus the analysis
/// horizon in hyperperiods (the only [`Analyzer`](crate::Analyzer) knob
/// that can change the verdict).
#[must_use]
pub fn canonicalize(config: &Configuration, hyperperiods: u32) -> CanonicalRequest {
    let bytes = canonical_bytes(config, hyperperiods);
    let key = hash_bytes(&bytes);
    CanonicalRequest { key, bytes }
}

/// Canonicalizes a configuration alone, with no horizon. Two requests over
/// the same configuration at different horizons share this key — that is
/// what lets a warm start reuse a shorter run's checkpoint for a longer
/// analysis of the same configuration.
#[must_use]
pub fn canonical_config(config: &Configuration) -> CanonicalConfig {
    let bytes = canonical_config_bytes(config);
    let key = hash_bytes(&bytes);
    CanonicalConfig { key, bytes }
}

/// The canonical byte encoding of a request. Every field is written in a
/// fixed order with explicit length prefixes, so the encoding is
/// prefix-free and injective over structurally distinct requests.
#[must_use]
pub fn canonical_bytes(config: &Configuration, hyperperiods: u32) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(CANON_VERSION);
    // Normalized default: the horizon is clamped exactly as the Analyzer
    // clamps it, so `0` and `1` are the same request.
    w.u32(hyperperiods.max(1));
    write_config_body(&mut w, config);
    w.out
}

/// The canonical byte encoding of a configuration alone (version tag plus
/// the shared body, no horizon field).
#[must_use]
pub fn canonical_config_bytes(config: &Configuration) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(CANON_VERSION);
    write_config_body(&mut w, config);
    w.out
}

/// The shared configuration body encoder used by both request and
/// configuration canonicalization.
fn write_config_body(w: &mut impl Sink, config: &Configuration) {
    w.len(config.core_types.len());
    for ct in &config.core_types {
        w.str(&ct.name);
    }

    w.len(config.modules.len());
    for m in &config.modules {
        w.str(&m.name);
        w.len(m.cores.len());
        for c in &m.cores {
            w.str(&c.name);
            w.u32(c.core_type.raw());
        }
    }

    w.len(config.partitions.len());
    for p in &config.partitions {
        w.str(&p.name);
        match p.scheduler {
            SchedulerKind::Fpps => w.u8(0),
            SchedulerKind::Fpnps => w.u8(1),
            SchedulerKind::Edf => w.u8(2),
            SchedulerKind::RoundRobin { quantum } => {
                w.u8(3);
                w.i64(quantum);
            }
        }
        w.len(p.tasks.len());
        for t in &p.tasks {
            w.str(&t.name);
            w.i64(t.priority);
            w.len(t.wcet.len());
            for &c in &t.wcet {
                w.i64(c);
            }
            w.i64(t.period);
            w.i64(t.deadline);
            w.i64(t.offset);
        }
    }

    w.len(config.binding.len());
    for b in &config.binding {
        w.u32(b.module.raw());
        w.u32(b.core);
    }

    w.len(config.windows.len());
    for ws in &config.windows {
        // Normalized default: window order within a partition is
        // irrelevant; sort so permutations share a key.
        let mut sorted = ws.clone();
        sorted.sort_unstable();
        w.len(sorted.len());
        for win in sorted {
            w.i64(win.start);
            w.i64(win.end);
        }
    }

    w.len(config.messages.len());
    for m in &config.messages {
        w.str(&m.name);
        w.u32(m.sender.partition.raw());
        w.u32(m.sender.task);
        w.u32(m.receiver.partition.raw());
        w.u32(m.receiver.task);
        w.i64(m.mem_delay);
        w.i64(m.net_delay);
    }
}

/// Canonicalizes a decomposable configuration *per module*: one
/// [`CanonicalRequest`] per module part, in module order. Returns `None`
/// when the configuration does not decompose (cross-module messages,
/// hyperperiod mismatch — see [`crate::compose::decompose`]).
///
/// Each key is the ordinary request key of the module's extracted
/// sub-configuration, in which the module is renumbered to 0 and its
/// partitions densely from 0. A module's key therefore depends only on
/// its own content: it is invariant under module reordering and under any
/// edit confined to sibling modules — which is what lets a near-duplicate
/// configuration (one partition edited) hit warm cache and checkpoint
/// entries for every unchanged module.
#[must_use]
pub fn canonicalize_modules(
    config: &Configuration,
    hyperperiods: u32,
) -> Option<Vec<CanonicalRequest>> {
    let parts = crate::compose::decompose(config);
    let parts = parts.parts()?;
    Some(
        parts
            .iter()
            .map(|p| canonicalize(&p.sub, hyperperiods))
            .collect(),
    )
}

/// As [`canonicalize_modules`] without a horizon: one [`CanonicalConfig`]
/// per module part, the keying unit of the per-module checkpoint reuse.
#[must_use]
pub fn canonical_module_configs(config: &Configuration) -> Option<Vec<CanonicalConfig>> {
    let parts = crate::compose::decompose(config);
    let parts = parts.parts()?;
    Some(parts.iter().map(|p| canonical_config(&p.sub)).collect())
}

/// Hashes a canonical byte string into a 128-bit key.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> CacheKey {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    CacheKey {
        hi: finalize(fnv1a(bytes, FNV_OFFSET ^ GOLDEN)),
        lo: finalize(fnv1a(bytes, FNV_OFFSET)),
    }
}

/// FNV-1a over `bytes` from the given offset basis.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64-style avalanche finalizer (FNV alone mixes high bits
/// weakly; the finalizer spreads them before the key is sharded).
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fixed-order encoder with length prefixes. Lengths and `u32`s are
/// unsigned LEB128 varints and `i64`s are zigzag LEB128, so small values
/// (the common case: indices, periods, WCETs) take one or two bytes. A
/// varint is self-delimiting, so the encoding stays prefix-free and hence
/// injective over structurally distinct requests.
#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            // Truncation keeps the low seven bits plus the continuation bit.
            #[allow(clippy::cast_possible_truncation)]
            self.out.push((v as u8) | 0x80);
            v >>= 7;
        }
        #[allow(clippy::cast_possible_truncation)]
        self.out.push(v as u8);
    }
}

/// The field encoder the configuration body is written through.
trait Sink {
    fn u8(&mut self, v: u8);
    fn u32(&mut self, v: u32);
    fn i64(&mut self, v: i64);
    fn len(&mut self, v: usize);
    fn raw(&mut self, bytes: &[u8]);

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.raw(s.as_bytes());
    }
}

impl Sink for Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.varint(u64::from(v));
    }

    fn i64(&mut self, v: i64) {
        // Zigzag: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ...
        #[allow(clippy::cast_sign_loss)]
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn len(&mut self, v: usize) {
        self.varint(u64::try_from(v).expect("length fits u64"));
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }
}

/// Version-1 canonical request bytes (fixed-width little-endian fields),
/// as earlier releases wrote them into cache keys and storage records.
/// Kept for tests that check old entries can never answer new requests.
#[cfg(test)]
pub(crate) fn legacy_v1_bytes(config: &Configuration, hyperperiods: u32) -> Vec<u8> {
    struct FixedWidth(Vec<u8>);
    impl Sink for FixedWidth {
        fn u8(&mut self, v: u8) {
            self.0.push(v);
        }
        fn u32(&mut self, v: u32) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        fn i64(&mut self, v: i64) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        fn len(&mut self, v: usize) {
            self.0.extend_from_slice(&(v as u64).to_le_bytes());
        }
        fn raw(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }
    let mut w = FixedWidth(Vec::new());
    w.u8(1);
    w.u32(hyperperiods.max(1));
    write_config_body(&mut w, config);
    w.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use swa_ima::{
        CoreRef, CoreType, CoreTypeId, Module, ModuleId, Partition, SchedulerKind, Task, Window,
    };

    fn config() -> Configuration {
        Configuration {
            core_types: vec![CoreType::new("ct")],
            modules: vec![Module::homogeneous("M", 1, CoreTypeId::from_raw(0))],
            partitions: vec![Partition::new(
                "P",
                SchedulerKind::Fpps,
                vec![
                    Task::new("a", 2, vec![10], 50),
                    Task::new("b", 1, vec![10], 50),
                ],
            )],
            binding: vec![CoreRef::new(ModuleId::from_raw(0), 0)],
            windows: vec![vec![Window::new(0, 20), Window::new(30, 50)]],
            messages: vec![],
        }
    }

    #[test]
    fn identical_requests_share_a_key() {
        let a = canonicalize(&config(), 1);
        let b = canonicalize(&config(), 1);
        assert_eq!(a.key, b.key);
        assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn window_order_is_normalized() {
        let mut permuted = config();
        permuted.windows[0].reverse();
        assert_eq!(canonicalize(&config(), 1).key, canonicalize(&permuted, 1).key);
    }

    #[test]
    fn horizon_default_is_normalized() {
        assert_eq!(canonicalize(&config(), 0).key, canonicalize(&config(), 1).key);
        assert_ne!(canonicalize(&config(), 1).key, canonicalize(&config(), 2).key);
    }

    #[test]
    fn every_semantic_field_lands_in_the_key() {
        let base = canonicalize(&config(), 1).key;
        let mut wcet = config();
        wcet.partitions[0].tasks[0].wcet[0] = 11;
        assert_ne!(base, canonicalize(&wcet, 1).key);

        let mut prio = config();
        prio.partitions[0].tasks[1].priority = 5;
        assert_ne!(base, canonicalize(&prio, 1).key);

        let mut sched = config();
        sched.partitions[0].scheduler = SchedulerKind::Edf;
        assert_ne!(base, canonicalize(&sched, 1).key);

        let mut quantum = config();
        quantum.partitions[0].scheduler = SchedulerKind::RoundRobin { quantum: 3 };
        let q3 = canonicalize(&quantum, 1).key;
        quantum.partitions[0].scheduler = SchedulerKind::RoundRobin { quantum: 4 };
        assert_ne!(q3, canonicalize(&quantum, 1).key);

        let mut windows = config();
        windows.windows[0][0].end = 25;
        assert_ne!(base, canonicalize(&windows, 1).key);

        let mut name = config();
        name.partitions[0].tasks[0].name = "renamed".into();
        assert_ne!(base, canonicalize(&name, 1).key, "names surface in reports");
    }

    #[test]
    fn length_prefixes_prevent_field_bleed() {
        // Two configurations whose concatenated string content is equal
        // but whose structure differs must not collide.
        let mut a = config();
        a.core_types = vec![CoreType::new("ab"), CoreType::new("c")];
        a.partitions[0].tasks[0].wcet = vec![10, 10];
        a.partitions[0].tasks[1].wcet = vec![10, 10];
        let mut b = config();
        b.core_types = vec![CoreType::new("a"), CoreType::new("bc")];
        b.partitions[0].tasks[0].wcet = vec![10, 10];
        b.partitions[0].tasks[1].wcet = vec![10, 10];
        assert_ne!(canonicalize(&a, 1).bytes, canonicalize(&b, 1).bytes);
        assert_ne!(canonicalize(&a, 1).key, canonicalize(&b, 1).key);
    }

    #[test]
    fn config_key_ignores_the_horizon_but_not_the_configuration() {
        let a = canonical_config(&config());
        let b = canonical_config(&config());
        assert_eq!(a.key, b.key);
        assert_eq!(a.bytes, b.bytes);
        // Requests at different horizons differ; the config key does not
        // encode a horizon at all, and request bytes never alias config
        // bytes (the request carries an extra u32 after the version tag).
        assert_ne!(a.bytes, canonicalize(&config(), 1).bytes);

        let mut changed = config();
        changed.partitions[0].tasks[0].wcet[0] = 11;
        assert_ne!(a.key, canonical_config(&changed).key);
    }

    fn encode(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        f(&mut w);
        w.out
    }

    const EDGE_I64: [i64; 16] = [
        0,
        1,
        -1,
        63,
        64,
        -64,
        -65,
        127,
        128,
        -128,
        -1000,
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
        1 << 40,
    ];
    const EDGE_U32: [u32; 9] = [0, 1, 63, 64, 127, 128, 16_383, 16_384, u32::MAX];

    #[test]
    fn varints_are_compact_and_prefix_free() {
        assert_eq!(encode(|w| w.i64(0)), [0x00]);
        assert_eq!(encode(|w| w.i64(-1)), [0x01]);
        assert_eq!(encode(|w| w.i64(1)), [0x02]);
        assert_eq!(encode(|w| w.i64(63)), [0x7e]);
        assert_eq!(encode(|w| w.i64(-64)), [0x7f]);
        assert_eq!(encode(|w| w.i64(64)), [0x80, 0x01]);
        assert_eq!(encode(|w| w.u32(127)), [0x7f]);
        assert_eq!(encode(|w| w.u32(128)), [0x80, 0x01]);
        assert_eq!(encode(|w| w.u32(u32::MAX)), [0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert_eq!(encode(|w| w.i64(i64::MAX)).len(), 10);
        assert_eq!(encode(|w| w.i64(i64::MIN)).len(), 10);

        // A prefix-free code is uniquely decodable: no codeword may start
        // another one (this also makes them pairwise distinct).
        let codes: Vec<Vec<u8>> = EDGE_I64
            .iter()
            .map(|&v| encode(|w| w.i64(v)))
            .chain(EDGE_U32.iter().map(|&v| encode(|w| w.u32(v))))
            .collect();
        let i64_codes = EDGE_I64.len();
        for (i, a) in codes.iter().enumerate() {
            for (j, b) in codes.iter().enumerate() {
                // Codes of the two field types may coincide; the grammar
                // never lets one stand where the other is expected.
                if i != j && (i < i64_codes) == (j < i64_codes) {
                    assert!(!b.starts_with(a), "code {i} prefixes code {j}");
                }
            }
        }
    }

    #[test]
    fn edge_values_give_distinct_bytes_and_keys() {
        let mut requests: Vec<(Configuration, u32)> = vec![(config(), 1)];
        for &v in &EDGE_I64 {
            let mut offset = config();
            offset.partitions[0].tasks[0].offset = v;
            requests.push((offset, 1));
            let mut priority = config();
            priority.partitions[0].tasks[1].priority = v;
            requests.push((priority, 1));
        }
        for &v in &EDGE_U32 {
            let mut core = config();
            core.binding[0] = CoreRef::new(ModuleId::from_raw(0), v);
            requests.push((core, 1));
            requests.push((config(), v.max(1)));
        }
        // Edge values that coincide with the base request are the same
        // request, not a collision.
        let mut distinct: Vec<(Configuration, u32)> = Vec::new();
        for r in requests {
            if !distinct.contains(&r) {
                distinct.push(r);
            }
        }
        let canon: Vec<CanonicalRequest> =
            distinct.iter().map(|(c, hp)| canonicalize(c, *hp)).collect();
        let keys: std::collections::HashSet<CacheKey> = canon.iter().map(|r| r.key).collect();
        let bytes: std::collections::HashSet<&Vec<u8>> = canon.iter().map(|r| &r.bytes).collect();
        assert_eq!(keys.len(), distinct.len());
        assert_eq!(bytes.len(), distinct.len());
        assert!(distinct.len() >= 40, "only {} distinct requests", distinct.len());
    }

    /// Each task costs a handful of bytes: typical periods, WCETs and
    /// priorities fit one or two varint bytes. A regression to fixed-width
    /// fields (about 59 bytes per task here) fails the bound.
    #[test]
    fn canonical_size_per_task_is_bounded() {
        let with_tasks = |n: usize| {
            let mut c = config();
            c.partitions[0].tasks = (0..n)
                .map(|i| Task::new(format!("t{i}"), i64::try_from(i).unwrap(), vec![25], 1000))
                .collect();
            c
        };
        let per_task = |encode: &dyn Fn(&Configuration) -> usize| {
            (encode(&with_tasks(100)) - encode(&with_tasks(0))) / 100
        };
        let v2 = per_task(&|c| canonicalize(c, 1).bytes.len());
        let v1 = per_task(&|c| legacy_v1_bytes(c, 1).len());
        assert!(v2 <= 14, "{v2} bytes per task");
        assert!(v1 >= 4 * v2, "v1 {v1} vs v2 {v2} bytes per task");
    }

    /// The version-1 encoder kept for tests reproduces what earlier
    /// releases wrote (the key is pinned from one of them), and the
    /// version bump keeps its entries apart from version-2 ones.
    #[test]
    fn legacy_v1_encoding_is_pinned_and_never_aliases_v2() {
        let v1 = legacy_v1_bytes(&config(), 1);
        assert_eq!(v1.len(), 278);
        assert_eq!(hash_bytes(&v1).to_string(), "8bf3ebc4b571ab7edccdf841d34e96b1");
        let v2 = canonicalize(&config(), 1);
        assert_eq!(v2.bytes[0], CANON_VERSION);
        assert_ne!(v1[0], v2.bytes[0]);
        assert_ne!(hash_bytes(&v1), v2.key);
        assert!(v2.bytes.len() * 3 < v1.len(), "{} vs {}", v2.bytes.len(), v1.len());
    }

    #[test]
    fn key_renders_as_32_hex_chars() {
        let key = canonicalize(&config(), 1).key;
        let hex = key.to_string();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    // ---- per-module key properties -----------------------------------

    /// Minimal in-file PRNG (the workspace policy: no external deps).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn pick(&mut self, n: usize) -> usize {
            usize::try_from(self.next()).unwrap() % n
        }
    }

    /// A random multi-module configuration over a harmonic period menu;
    /// every partition anchors a period-200 task so each module's
    /// hyperperiod equals the whole configuration's and the config
    /// decomposes.
    fn random_multi_module(rng: &mut Lcg) -> Configuration {
        let ct = CoreTypeId::from_raw(0);
        let modules_n = 2 + rng.pick(3);
        let mut config = Configuration {
            core_types: vec![CoreType::new("generic")],
            ..Configuration::default()
        };
        for mi in 0..modules_n {
            config
                .modules
                .push(Module::homogeneous(format!("M{mi}"), 1, ct));
            let parts_n = 1 + rng.pick(2);
            for pi in 0..parts_n {
                let mut tasks = vec![Task::new(
                    format!("m{mi}p{pi}_anchor"),
                    9,
                    vec![2],
                    200,
                )];
                for ti in 0..rng.pick(3) {
                    let period = [50, 100, 200][rng.pick(3)];
                    tasks.push(Task::new(
                        format!("m{mi}p{pi}t{ti}"),
                        i64::try_from(ti).unwrap(),
                        vec![1 + i64::try_from(rng.pick(4)).unwrap()],
                        period,
                    ));
                }
                config
                    .partitions
                    .push(Partition::new(format!("m{mi}p{pi}"), SchedulerKind::Fpps, tasks));
                config.binding.push(CoreRef::new(
                    ModuleId::from_raw(u32::try_from(mi).unwrap()),
                    0,
                ));
                let width = 200 / i64::try_from(parts_n).unwrap();
                let lo = width * i64::try_from(pi).unwrap();
                config.windows.push(vec![Window::new(lo, lo + width)]);
            }
        }
        config
    }

    /// Reorders `config`'s modules by `perm` (new index -> old index),
    /// remapping the bindings accordingly. Partition order stays global.
    fn permute_modules(config: &Configuration, perm: &[usize]) -> Configuration {
        let mut out = config.clone();
        out.modules = perm.iter().map(|&old| config.modules[old].clone()).collect();
        let mut new_of_old = vec![0u32; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            new_of_old[old] = u32::try_from(new).unwrap();
        }
        for b in &mut out.binding {
            *b = CoreRef::new(ModuleId::from_raw(new_of_old[b.module.index()]), b.core);
        }
        out
    }

    #[test]
    fn module_keys_are_invariant_under_module_reordering() {
        let mut rng = Lcg(0x5eed_0001);
        for _ in 0..25 {
            let config = random_multi_module(&mut rng);
            config.validate().unwrap();
            let base = canonicalize_modules(&config, 1).expect("decomposable");
            let mut base_keys: Vec<CacheKey> = base.iter().map(|r| r.key).collect();
            base_keys.sort_unstable();

            // A random permutation of the modules.
            let mut perm: Vec<usize> = (0..config.modules.len()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.pick(i + 1));
            }
            let permuted = permute_modules(&config, &perm);
            permuted.validate().unwrap();
            let mut permuted_keys: Vec<CacheKey> = canonicalize_modules(&permuted, 1)
                .expect("still decomposable")
                .iter()
                .map(|r| r.key)
                .collect();
            permuted_keys.sort_unstable();
            assert_eq!(base_keys, permuted_keys, "perm {perm:?}");
        }
    }

    #[test]
    fn module_keys_ignore_sibling_module_edits() {
        let mut rng = Lcg(0x5eed_0002);
        for _ in 0..25 {
            let config = random_multi_module(&mut rng);
            let base = canonicalize_modules(&config, 1).expect("decomposable");

            // Edit one task inside one module ("the victim").
            let victim_module = rng.pick(config.modules.len());
            let mut edited = config.clone();
            let target = edited
                .binding
                .iter()
                .position(|b| b.module.index() == victim_module)
                .expect("every module owns a partition");
            edited.partitions[target].tasks[0].wcet[0] += 1;

            let after = canonicalize_modules(&edited, 1).expect("still decomposable");
            assert_eq!(base.len(), after.len());
            let mut victim_changed = false;
            for (b, a) in base.iter().zip(&after) {
                if b.key == a.key {
                    assert_eq!(b.bytes, a.bytes);
                } else {
                    assert!(!victim_changed, "only one module's key may change");
                    victim_changed = true;
                }
            }
            assert!(victim_changed, "the edited module's key must change");
        }
    }

    #[test]
    fn cross_module_links_force_the_whole_config_fallback() {
        let mut rng = Lcg(0x5eed_0003);
        let mut exercised = 0;
        for _ in 0..25 {
            let config = random_multi_module(&mut rng);
            // Wire the two anchor tasks (period 200 on every partition) of
            // partitions on *different* modules.
            let a = rng.pick(config.partitions.len());
            let Some(b) = (0..config.partitions.len())
                .find(|&b| config.binding[b].module != config.binding[a].module)
            else {
                continue;
            };
            let mut linked = config.clone();
            linked.messages.push(swa_ima::Message::new(
                "crossing",
                swa_ima::TaskRef::new(swa_ima::PartitionId::from_raw(u32::try_from(a).unwrap()), 0),
                swa_ima::TaskRef::new(swa_ima::PartitionId::from_raw(u32::try_from(b).unwrap()), 0),
                1,
                5,
            ));
            linked.validate().unwrap();
            assert!(
                canonicalize_modules(&linked, 1).is_none(),
                "a cross-module link must force whole-config analysis"
            );
            assert!(canonical_module_configs(&linked).is_none());
            exercised += 1;
        }
        assert!(exercised >= 20, "the property was barely exercised");
    }

    #[test]
    fn module_request_and_config_keys_align_with_the_parts() {
        let mut rng = Lcg(0x5eed_0004);
        let config = random_multi_module(&mut rng);
        let reqs = canonicalize_modules(&config, 1).expect("decomposable");
        let cfgs = canonical_module_configs(&config).expect("decomposable");
        let parts = crate::compose::decompose(&config);
        let parts = parts.parts().expect("decomposable");
        assert_eq!(reqs.len(), parts.len());
        assert_eq!(cfgs.len(), parts.len());
        for ((req, cfg), part) in reqs.iter().zip(&cfgs).zip(parts) {
            assert_eq!(req.key, canonicalize(&part.sub, 1).key);
            assert_eq!(cfg.key, canonical_config(&part.sub).key);
        }
    }
}
