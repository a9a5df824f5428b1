//! Golden snapshots for the five observation spaces on two fixed-seed
//! benchmarks. Observation vectors are the contract between environments
//! and learned policies: a silent change to feature extraction invalidates
//! every trained model and every cached dataset. Any intentional change to
//! an extractor must update these constants in the same commit, which makes
//! feature drift a reviewed decision rather than an accident.
//!
//! Full vectors are pinned for the small spaces (InstCount-70, Autophase-56)
//! and FNV-1a content hashes for the large ones (IR text, inst2vec-200
//! little-endian bytes) plus node/edge counts and a layout hash for
//! ProGraML: every node's `(kind, label, opcode)` and every edge's
//! `(src, dst, kind)`, in order, so that a change of node numbering or edge
//! order is caught, not only a change of size.

use cg_llvm::observation::{
    autophase, inst2vec, inst_count, ir_text, programl, ProgramGraph, AUTOPHASE_DIM, INST2VEC_DIM,
    INST_COUNT_DIM,
};

struct Golden {
    uri: &'static str,
    ir_hash: u64,
    ir_lines: usize,
    inst_count: [i64; INST_COUNT_DIM],
    autophase: [i64; AUTOPHASE_DIM],
    inst2vec_hash: u64,
    programl_nodes: usize,
    programl_edges: usize,
    programl_layout: u64,
}

const CRC32: Golden = Golden {
    uri: "benchmark://cbench-v1/crc32",
    ir_hash: 0x283dec03bf347912,
    ir_lines: 81,
    inst_count: [
        1, 0, 0, 0, 0, 1, 0, 4, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 14, 22,
        16, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 2, 0, 69, 5, 2, 2, 2, 30, 0, 16, 9, 65, 2,
        0, 0, 0, 29, 4, 0, 4352, 1, 56, 1, 0,
    ],
    autophase: [
        5, 64, 2, 4, 0, 2, 1, 0, 2, 1, 0, 1, 0, 0, 1, 0, 1, 4, 2, 1, 0, 2, 0, 0, 0, 5, 0, 0, 0, 8,
        5, 1, 0, 0, 0, 1, 0, 4, 1, 1, 0, 1, 0, 0, 22, 16, 2, 14, 1, 0, 0, 0, 9, 2, 2, 38,
    ],
    inst2vec_hash: 0x08abf846e3b7046f,
    programl_nodes: 125,
    programl_edges: 196,
    programl_layout: 0xf807c146d2818f24,
};

const CSMITH_12345: Golden = Golden {
    uri: "benchmark://csmith-v0/12345",
    ir_hash: 0xf422c708402eea51,
    ir_lines: 1216,
    inst_count: [
        27, 7, 2, 1, 3, 17, 8, 19, 5, 3, 3, 0, 3, 0, 0, 3, 7, 13, 6, 2, 1, 0, 0, 0, 0, 0, 0, 4,
        211, 378, 260, 10, 15, 0, 1, 1, 2, 0, 0, 0, 2, 3, 0, 60, 26, 2, 5, 0, 1110, 93, 5, 2, 64,
        467, 5, 221, 120, 1112, 10, 0, 43, 10, 80, 120, 6, 80, 0, 322, 28, 2,
    ],
    autophase: [
        93, 1017, 5, 120, 0, 60, 26, 2, 60, 26, 2, 50, 7, 7, 17, 4, 9, 80, 60, 26, 2, 5, 0, 0, 0,
        93, 0, 0, 0, 98, 60, 27, 7, 2, 4, 17, 8, 19, 5, 6, 3, 32, 0, 4, 378, 260, 10, 211, 15, 17,
        4, 5, 114, 11, 16, 638,
    ],
    inst2vec_hash: 0x67bc3e96ef854f57,
    programl_nodes: 1917,
    programl_edges: 3179,
    programl_layout: 0x9499216e56420d5d,
};

/// FNV-1a over the graph's layout: each node as its kind's index, its label
/// bytes, a 0xFF terminator and its opcode (LE), then each edge as source,
/// target (LE) and its kind's index.
fn programl_layout_hash(g: &ProgramGraph) -> u64 {
    let mut bytes = Vec::new();
    for n in &g.nodes {
        bytes.push(n.kind as u8);
        bytes.extend_from_slice(n.label.as_bytes());
        bytes.push(0xFF);
        bytes.extend_from_slice(&n.opcode.to_le_bytes());
    }
    for &(src, dst, kind) in &g.edges {
        bytes.extend_from_slice(&src.to_le_bytes());
        bytes.extend_from_slice(&dst.to_le_bytes());
        bytes.push(kind as u8);
    }
    cg_ir::fnv1a(&bytes)
}

fn check(golden: &Golden) {
    let m = cg_datasets::benchmark(golden.uri).unwrap();

    let ir = ir_text(&m);
    assert_eq!(
        cg_ir::fnv1a(ir.as_bytes()),
        golden.ir_hash,
        "{}: IR text drifted ({} lines, expected {})",
        golden.uri,
        ir.lines().count(),
        golden.ir_lines
    );
    assert_eq!(
        ir.lines().count(),
        golden.ir_lines,
        "{}: IR line count drifted",
        golden.uri
    );

    let ic = inst_count(&m);
    assert_eq!(ic.len(), INST_COUNT_DIM);
    assert_eq!(ic, golden.inst_count, "{}: InstCount drifted", golden.uri);

    let ap = autophase(&m);
    assert_eq!(ap.len(), AUTOPHASE_DIM);
    assert_eq!(ap, golden.autophase, "{}: Autophase drifted", golden.uri);

    let iv = inst2vec(&m);
    assert_eq!(iv.len(), INST2VEC_DIM);
    let iv_bytes: Vec<u8> = iv.iter().flat_map(|f| f.to_le_bytes()).collect();
    assert_eq!(
        cg_ir::fnv1a(&iv_bytes),
        golden.inst2vec_hash,
        "{}: inst2vec embedding drifted (first dims: {:?})",
        golden.uri,
        &iv[..4]
    );

    let g = programl(&m);
    assert_eq!(
        g.node_count(),
        golden.programl_nodes,
        "{}: ProGraML node count drifted",
        golden.uri
    );
    assert_eq!(
        g.edge_count(),
        golden.programl_edges,
        "{}: ProGraML edge count drifted",
        golden.uri
    );
    assert_eq!(
        programl_layout_hash(&g),
        golden.programl_layout,
        "{}: ProGraML layout drifted",
        golden.uri
    );
}

#[test]
fn golden_observations_cbench_crc32() {
    check(&CRC32);
}

#[test]
fn golden_observations_csmith_12345() {
    check(&CSMITH_12345);
}
