//! Hand-written benchmark kernels.
//!
//! The cBench, CHStone, MiBench and BLAS datasets are small suites of *real*
//! programs; reproducing their role in the paper's experiments (Table IV,
//! Table V, Figure 6) requires benchmarks with genuine, distinct structure —
//! table-driven CRC loops, sort networks, graph relaxation, Feistel rounds,
//! stencils, bytecode interpreters — not just random arithmetic. This module
//! builds those kernels directly in IR. Every kernel is runnable: `main`
//! deterministically initializes its input globals, executes the kernel, and
//! returns a checksum.

use cg_ir::builder::{FunctionBuilder, ModuleBuilder};
use cg_ir::{BinOp, CastKind, FuncId, Module, Operand, Pred, Type};

/// Deterministic pseudo-random fill for input arrays (LCG, fixed multiplier).
fn fill(seed: u64, n: usize, modulus: i64) -> Vec<i64> {
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as i64).rem_euclid(modulus.max(1))
        })
        .collect()
}

/// Builds `for i in 0..trip { accs = body(i, accs) }` and returns the final
/// accumulator values (valid after the loop). `trip` must be a value or
/// constant available before the loop.
fn counted_loop(
    fb: &mut FunctionBuilder<'_>,
    trip: Operand,
    inits: &[(Type, Operand)],
    body: impl FnOnce(&mut FunctionBuilder<'_>, Operand, &[Operand]) -> Vec<Operand>,
) -> Vec<Operand> {
    let preheader = fb.current_block();
    let header = fb.new_block();
    let body_b = fb.new_block();
    let exit = fb.new_block();
    fb.br(header);

    fb.switch_to(header);
    let i = fb.phi(Type::I64, vec![(preheader, Operand::const_int(0))]);
    let accs: Vec<Operand> = inits
        .iter()
        .map(|(ty, init)| fb.phi(*ty, vec![(preheader, *init)]))
        .collect();
    let cond = fb.icmp(Pred::Lt, i, trip);
    fb.cond_br(cond, body_b, exit);

    fb.switch_to(body_b);
    let nexts = body(fb, i, &accs);
    assert_eq!(
        nexts.len(),
        accs.len(),
        "body must return one value per accumulator"
    );
    let i_next = fb.bin(BinOp::Add, i, Operand::const_int(1));
    let latch = fb.current_block();
    fb.add_phi_incoming(i, latch, i_next);
    for (acc, next) in accs.iter().zip(&nexts) {
        fb.add_phi_incoming(*acc, latch, *next);
    }
    fb.br(header);

    fb.switch_to(exit);
    accs
}

/// A boxed kernel-emitter closure, as accepted by [`compose`].
pub type KernelEmit<'a> = Box<dyn FnOnce(&mut ModuleBuilder) -> FuncId + 'a>;

/// Wraps one emitted kernel function into a standalone runnable module:
/// `main` calls the kernel and returns its checksum.
pub fn single(name: &str, emit: impl FnOnce(&mut ModuleBuilder) -> FuncId) -> Module {
    compose(name, vec![Box::new(emit)])
}

/// Builds a module from several kernel functions; `main` calls each in order
/// and mixes the checksums. Used for the larger cBench programs
/// (`ghostscript`, `jpeg`, `lame`, …), which in reality are multi-module
/// applications rather than single kernels.
pub fn compose(name: &str, emits: Vec<KernelEmit<'_>>) -> Module {
    let mut mb = ModuleBuilder::new(name);
    let fids: Vec<FuncId> = emits.into_iter().map(|e| e(&mut mb)).collect();
    let mut fb = mb.begin_function("main", &[], Type::I64);
    let mut acc = Operand::const_int(0);
    for fid in fids {
        let r = fb.call(fid, Type::I64, vec![]).expect("kernels return i64");
        let rot = fb.bin(BinOp::Shl, acc, Operand::const_int(1));
        acc = fb.bin(BinOp::Xor, rot, r);
    }
    fb.ret(Some(acc));
    fb.finish();
    mb.finish()
}

/// Table-driven CRC-32 over `len` input words (the cBench `crc32` program).
pub fn emit_crc32(mb: &mut ModuleBuilder, fname: &str, len: u32) -> FuncId {
    // Build the real CRC-32 table (polynomial 0xEDB88320).
    let mut table = Vec::with_capacity(256);
    for n in 0u64..256 {
        let mut c = n;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        table.push(c as i64);
    }
    let tab = mb.add_const_global(format!("{fname}_crc_table"), 256, table);
    let data = mb.add_global(
        format!("{fname}_data"),
        len,
        fill(0xc3c3, len as usize, 256),
    );

    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let trip = Operand::const_int(len as i64);
    let out = counted_loop(
        &mut fb,
        trip,
        &[(Type::I64, Operand::const_int(0xFFFF_FFFF))],
        |fb, i, accs| {
            let crc = accs[0];
            let p = fb.gep(Operand::Global(data), i);
            let byte = fb.load(Type::I64, p);
            let x = fb.bin(BinOp::Xor, crc, byte);
            let idx = fb.bin(BinOp::And, x, Operand::const_int(0xFF));
            let tp = fb.gep(Operand::Global(tab), idx);
            let t = fb.load(Type::I64, tp);
            let shifted = fb.bin(BinOp::LShr, crc, Operand::const_int(8));
            let next = fb.bin(BinOp::Xor, shifted, t);
            vec![next]
        },
    );
    let result = fb.bin(BinOp::Xor, out[0], Operand::const_int(0xFFFF_FFFF));
    fb.ret(Some(result));
    fb.finish()
}

/// In-place insertion sort over `n` elements, then a verification checksum
/// (stands in for cBench `qsort`: a comparison-sort kernel dominated by a
/// data-dependent inner loop with memory traffic).
pub fn emit_sort_kernel(mb: &mut ModuleBuilder, fname: &str, n: u32) -> FuncId {
    let arr = mb.add_global(format!("{fname}_arr"), n, fill(0x50f7, n as usize, 10_000));

    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let base = Operand::Global(arr);
    let trip = Operand::const_int(n as i64);
    // for i in 0..n: j = i; while j>0 && a[j-1] > a[j]: swap; j -= 1
    counted_loop(&mut fb, trip, &[], |fb, i, _| {
        // Inner while loop as a manually built CFG.
        let pre = fb.current_block();
        let header = fb.new_block();
        let check = fb.new_block();
        let swap_b = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);

        fb.switch_to(header);
        let j = fb.phi(Type::I64, vec![(pre, i)]);
        let positive = fb.icmp(Pred::Gt, j, Operand::const_int(0));
        fb.cond_br(positive, check, exit);

        fb.switch_to(check);
        let jm1 = fb.bin(BinOp::Sub, j, Operand::const_int(1));
        let pj = fb.gep(base, j);
        let pjm1 = fb.gep(base, jm1);
        let vj = fb.load(Type::I64, pj);
        let vjm1 = fb.load(Type::I64, pjm1);
        let out_of_order = fb.icmp(Pred::Gt, vjm1, vj);
        fb.cond_br(out_of_order, swap_b, exit);

        fb.switch_to(swap_b);
        fb.store(pj, vjm1);
        fb.store(pjm1, vj);
        fb.add_phi_incoming(j, swap_b, jm1);
        fb.br(header);

        fb.switch_to(exit);
        vec![]
    });
    // Checksum: sum of a[i] * i.
    let sum = counted_loop(
        &mut fb,
        trip,
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, accs| {
            let p = fb.gep(base, i);
            let v = fb.load(Type::I64, p);
            let w = fb.bin(BinOp::Mul, v, i);
            vec![fb.bin(BinOp::Add, accs[0], w)]
        },
    );
    fb.ret(Some(sum[0]));
    fb.finish()
}

/// Dijkstra-style all-pairs relaxation over an `n`×`n` adjacency matrix
/// (Floyd–Warshall triple loop; the memory/branch mix of cBench `dijkstra`).
pub fn emit_dijkstra(mb: &mut ModuleBuilder, fname: &str, n: u32) -> FuncId {
    let slots = n * n;
    let mut init = fill(0xd1d1, slots as usize, 100);
    // Large "infinity" for a fraction of edges.
    for (i, v) in init.iter_mut().enumerate() {
        if i % 7 == 0 {
            *v = 1_000_000;
        }
    }
    let adj = mb.add_global(format!("{fname}_adj"), slots, init);
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let base = Operand::Global(adj);
    let nn = Operand::const_int(n as i64);
    counted_loop(&mut fb, nn, &[], |fb, k, _| {
        let kn = fb.bin(BinOp::Mul, k, nn);
        counted_loop(fb, nn, &[], |fb, i, _| {
            let in_ = fb.bin(BinOp::Mul, i, nn);
            let ik_p = fb.bin(BinOp::Add, in_, k);
            let pik = fb.gep(base, ik_p);
            let dik = fb.load(Type::I64, pik);
            counted_loop(fb, nn, &[], |fb, j, _| {
                let kj_p = fb.bin(BinOp::Add, kn, j);
                let pkj = fb.gep(base, kj_p);
                let dkj = fb.load(Type::I64, pkj);
                let ij_p = fb.bin(BinOp::Add, in_, j);
                let pij = fb.gep(base, ij_p);
                let dij = fb.load(Type::I64, pij);
                let via = fb.bin(BinOp::Add, dik, dkj);
                let better = fb.icmp(Pred::Lt, via, dij);
                let best = fb.select(Type::I64, better, via, dij);
                fb.store(pij, best);
                vec![]
            });
            vec![]
        });
        vec![]
    });
    let sum = counted_loop(
        &mut fb,
        Operand::const_int(slots as i64),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, accs| {
            let p = fb.gep(base, i);
            let v = fb.load(Type::I64, p);
            vec![fb.bin(BinOp::Add, accs[0], v)]
        },
    );
    fb.ret(Some(sum[0]));
    fb.finish()
}

/// SHA-like mixing rounds: rotate/xor/add chains over a message schedule
/// (cBench `sha`, MiBench `sha`).
pub fn emit_sha_mix(mb: &mut ModuleBuilder, fname: &str, blocks: u32) -> FuncId {
    let msg = mb.add_global(
        format!("{fname}_msg"),
        blocks * 16,
        fill(0x5a5a, (blocks * 16) as usize, 1 << 30),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let base = Operand::Global(msg);
    let out = counted_loop(
        &mut fb,
        Operand::const_int(blocks as i64),
        &[
            (Type::I64, Operand::const_int(0x6745_2301)),
            (Type::I64, Operand::const_int(0xEFCD_AB89)),
            (Type::I64, Operand::const_int(0x98BA_DCFE)),
        ],
        |fb, blk, accs| {
            let off = fb.bin(BinOp::Mul, blk, Operand::const_int(16));

            counted_loop(
                fb,
                Operand::const_int(16),
                &[
                    (Type::I64, accs[0]),
                    (Type::I64, accs[1]),
                    (Type::I64, accs[2]),
                ],
                |fb, t, st| {
                    let (a, b, c) = (st[0], st[1], st[2]);
                    let idx = fb.bin(BinOp::Add, off, t);
                    let p = fb.gep(base, idx);
                    let w = fb.load(Type::I64, p);
                    // f = (b & c) | (~b & a)
                    let bc = fb.bin(BinOp::And, b, c);
                    let nb = fb.not(b, Type::I64);
                    let nba = fb.bin(BinOp::And, nb, a);
                    let f = fb.bin(BinOp::Or, bc, nba);
                    // rotl5(a) approximated with shl/lshr/or.
                    let hi = fb.bin(BinOp::Shl, a, Operand::const_int(5));
                    let lo = fb.bin(BinOp::LShr, a, Operand::const_int(59));
                    let rot = fb.bin(BinOp::Or, hi, lo);
                    let s1 = fb.bin(BinOp::Add, rot, f);
                    let s2 = fb.bin(BinOp::Add, s1, w);
                    let a2 = fb.bin(BinOp::Add, s2, Operand::const_int(0x5A82_7999));
                    vec![a2, a, b]
                },
            )
        },
    );
    let x = fb.bin(BinOp::Xor, out[0], out[1]);
    let y = fb.bin(BinOp::Xor, x, out[2]);
    fb.ret(Some(y));
    fb.finish()
}

/// FIR filter: float multiply-accumulate over a sliding window (MiBench
/// `fft`-adjacent float kernel; also used for BLAS-style dot products).
pub fn emit_fir(mb: &mut ModuleBuilder, fname: &str, len: u32, taps: u32) -> FuncId {
    let signal = mb.add_global(
        format!("{fname}_signal"),
        len,
        fill(0xf1f1, len as usize, 1000),
    );
    let coeff = mb.add_const_global(
        format!("{fname}_coeff"),
        taps,
        (0..taps)
            .map(|i| ((i as f64 * 0.37).sin() * 100.0) as i64)
            .collect(),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let sig = Operand::Global(signal);
    let co = Operand::Global(coeff);
    let n_out = (len - taps) as i64;
    let out = counted_loop(
        &mut fb,
        Operand::const_int(n_out),
        &[(Type::F64, Operand::const_float(0.0))],
        |fb, i, accs| {
            let inner = counted_loop(
                fb,
                Operand::const_int(taps as i64),
                &[(Type::F64, Operand::const_float(0.0))],
                |fb, t, st| {
                    let idx = fb.bin(BinOp::Add, i, t);
                    let sp = fb.gep(sig, idx);
                    let sv = fb.load(Type::I64, sp);
                    let sf = fb.cast(CastKind::IntToFloat, sv);
                    let cp = fb.gep(co, t);
                    let cv = fb.load(Type::I64, cp);
                    let cf = fb.cast(CastKind::IntToFloat, cv);
                    let prod = fb.bin(BinOp::FMul, sf, cf);
                    vec![fb.bin(BinOp::FAdd, st[0], prod)]
                },
            );
            vec![fb.bin(BinOp::FAdd, accs[0], inner[0])]
        },
    );
    let as_int = fb.cast(CastKind::FloatToInt, out[0]);
    fb.ret(Some(as_int));
    fb.finish()
}

/// Dense matrix multiply C = A·B over `n`×`n` integer matrices (BLAS `gemm`,
/// NPB-style kernel).
pub fn emit_matmul(mb: &mut ModuleBuilder, fname: &str, n: u32) -> FuncId {
    let a = mb.add_const_global(format!("{fname}_A"), n * n, fill(1, (n * n) as usize, 100));
    let b = mb.add_const_global(format!("{fname}_B"), n * n, fill(2, (n * n) as usize, 100));
    let c = mb.add_global(format!("{fname}_C"), n * n, vec![0; (n * n) as usize]);
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let nn = Operand::const_int(n as i64);
    let (pa, pb, pc) = (Operand::Global(a), Operand::Global(b), Operand::Global(c));
    counted_loop(&mut fb, nn, &[], |fb, i, _| {
        let irow = fb.bin(BinOp::Mul, i, nn);
        counted_loop(fb, nn, &[], |fb, j, _| {
            let acc = counted_loop(
                fb,
                nn,
                &[(Type::I64, Operand::const_int(0))],
                |fb, k, st| {
                    let aik_i = fb.bin(BinOp::Add, irow, k);
                    let ap = fb.gep(pa, aik_i);
                    let av = fb.load(Type::I64, ap);
                    let krow = fb.bin(BinOp::Mul, k, nn);
                    let bkj_i = fb.bin(BinOp::Add, krow, j);
                    let bp = fb.gep(pb, bkj_i);
                    let bv = fb.load(Type::I64, bp);
                    let prod = fb.bin(BinOp::Mul, av, bv);
                    vec![fb.bin(BinOp::Add, st[0], prod)]
                },
            );
            let cij_i = fb.bin(BinOp::Add, irow, j);
            let cp = fb.gep(pc, cij_i);
            fb.store(cp, acc[0]);
            vec![]
        });
        vec![]
    });
    let sum = counted_loop(
        &mut fb,
        Operand::const_int((n * n) as i64),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, st| {
            let p = fb.gep(pc, i);
            let v = fb.load(Type::I64, p);
            vec![fb.bin(BinOp::Xor, st[0], v)]
        },
    );
    fb.ret(Some(sum[0]));
    fb.finish()
}

/// Bit population counts by three methods (cBench/MiBench `bitcount`).
pub fn emit_bitcount(mb: &mut ModuleBuilder, fname: &str, n: u32) -> FuncId {
    let data = mb.add_global(
        format!("{fname}_data"),
        n,
        fill(0xb17c, n as usize, i64::MAX),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let base = Operand::Global(data);
    let out = counted_loop(
        &mut fb,
        Operand::const_int(n as i64),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, accs| {
            let p = fb.gep(base, i);
            let v = fb.load(Type::I64, p);
            // Method 1: Kernighan loop — while (x) { x &= x-1; c += 1 }.
            let pre = fb.current_block();
            let header = fb.new_block();
            let body = fb.new_block();
            let exit = fb.new_block();
            fb.br(header);
            fb.switch_to(header);
            let x = fb.phi(Type::I64, vec![(pre, v)]);
            let cnt = fb.phi(Type::I64, vec![(pre, Operand::const_int(0))]);
            let nz = fb.icmp(Pred::Ne, x, Operand::const_int(0));
            fb.cond_br(nz, body, exit);
            fb.switch_to(body);
            let xm1 = fb.bin(BinOp::Sub, x, Operand::const_int(1));
            let x2 = fb.bin(BinOp::And, x, xm1);
            let c2 = fb.bin(BinOp::Add, cnt, Operand::const_int(1));
            fb.add_phi_incoming(x, body, x2);
            fb.add_phi_incoming(cnt, body, c2);
            fb.br(header);
            fb.switch_to(exit);
            // Method 2: nibble table via shifts (4 unrolled steps).
            let mut nib_sum = Operand::const_int(0);
            for s in [0i64, 4, 8, 12] {
                let sh = fb.bin(BinOp::LShr, v, Operand::const_int(s));
                let nib = fb.bin(BinOp::And, sh, Operand::const_int(0xF));
                nib_sum = fb.bin(BinOp::Add, nib_sum, nib);
            }
            let combined = fb.bin(BinOp::Add, cnt, nib_sum);
            vec![fb.bin(BinOp::Add, accs[0], combined)]
        },
    );
    fb.ret(Some(out[0]));
    fb.finish()
}

/// Naive substring search over integer "strings" (cBench `stringsearch`).
pub fn emit_stringsearch(
    mb: &mut ModuleBuilder,
    fname: &str,
    hay_len: u32,
    needle_len: u32,
) -> FuncId {
    let hay = mb.add_const_global(
        format!("{fname}_hay"),
        hay_len,
        fill(0x4a11, hay_len as usize, 16),
    );
    // Take the needle from inside the haystack so matches exist.
    let hv = fill(0x4a11, hay_len as usize, 16);
    let start = (hay_len / 3) as usize;
    let needle = mb.add_const_global(
        format!("{fname}_needle"),
        needle_len,
        hv[start..start + needle_len as usize].to_vec(),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (ph, pn) = (Operand::Global(hay), Operand::Global(needle));
    let outer = (hay_len - needle_len) as i64;
    let out = counted_loop(
        &mut fb,
        Operand::const_int(outer),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, accs| {
            let inner = counted_loop(
                fb,
                Operand::const_int(needle_len as i64),
                &[(Type::I64, Operand::const_int(1))],
                |fb, j, st| {
                    let hij = fb.bin(BinOp::Add, i, j);
                    let hp = fb.gep(ph, hij);
                    let hvv = fb.load(Type::I64, hp);
                    let np = fb.gep(pn, j);
                    let nv = fb.load(Type::I64, np);
                    let same = fb.icmp(Pred::Eq, hvv, nv);
                    let same_i = fb.cast(CastKind::BoolToInt, same);
                    vec![fb.bin(BinOp::And, st[0], same_i)]
                },
            );
            vec![fb.bin(BinOp::Add, accs[0], inner[0])]
        },
    );
    fb.ret(Some(out[0]));
    fb.finish()
}

/// 2D 3×3 smoothing stencil over a `w`×`h` image (cBench `susan`).
pub fn emit_stencil2d(mb: &mut ModuleBuilder, fname: &str, w: u32, h: u32) -> FuncId {
    let img = mb.add_global(
        format!("{fname}_img"),
        w * h,
        fill(0x1a6e, (w * h) as usize, 256),
    );
    let out_g = mb.add_global(format!("{fname}_out"), w * h, vec![0; (w * h) as usize]);
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (pi, po) = (Operand::Global(img), Operand::Global(out_g));
    let wi = Operand::const_int(w as i64);
    counted_loop(
        &mut fb,
        Operand::const_int((h - 2) as i64),
        &[],
        |fb, y0, _| {
            let y = fb.bin(BinOp::Add, y0, Operand::const_int(1));
            counted_loop(fb, Operand::const_int((w - 2) as i64), &[], |fb, x0, _| {
                let x = fb.bin(BinOp::Add, x0, Operand::const_int(1));
                let mut sum = Operand::const_int(0);
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let yy = fb.bin(BinOp::Add, y, Operand::const_int(dy));
                        let row = fb.bin(BinOp::Mul, yy, wi);
                        let xx = fb.bin(BinOp::Add, x, Operand::const_int(dx));
                        let idx = fb.bin(BinOp::Add, row, xx);
                        let p = fb.gep(pi, idx);
                        let v = fb.load(Type::I64, p);
                        sum = fb.bin(BinOp::Add, sum, v);
                    }
                }
                let avg = fb.bin(BinOp::Div, sum, Operand::const_int(9));
                let row = fb.bin(BinOp::Mul, y, wi);
                let idx = fb.bin(BinOp::Add, row, x);
                let p = fb.gep(po, idx);
                fb.store(p, avg);
                vec![]
            });
            vec![]
        },
    );
    let sum = counted_loop(
        &mut fb,
        Operand::const_int((w * h) as i64),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, st| {
            let p = fb.gep(po, i);
            let v = fb.load(Type::I64, p);
            vec![fb.bin(BinOp::Add, st[0], v)]
        },
    );
    fb.ret(Some(sum[0]));
    fb.finish()
}

/// ADPCM encode/decode: step-size adaptation with clamping selects
/// (cBench `adpcm_c` / `adpcm_d`).
pub fn emit_adpcm(mb: &mut ModuleBuilder, fname: &str, n: u32, encode: bool) -> FuncId {
    let data = mb.add_global(format!("{fname}_pcm"), n, fill(0xadcc, n as usize, 65536));
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let base = Operand::Global(data);
    let out = counted_loop(
        &mut fb,
        Operand::const_int(n as i64),
        &[
            (Type::I64, Operand::const_int(0)), // predicted
            (Type::I64, Operand::const_int(7)), // step
            (Type::I64, Operand::const_int(0)), // checksum
        ],
        |fb, i, st| {
            let (pred, step, sum) = (st[0], st[1], st[2]);
            let p = fb.gep(base, i);
            let sample = fb.load(Type::I64, p);
            let diff = if encode {
                fb.bin(BinOp::Sub, sample, pred)
            } else {
                fb.bin(BinOp::Add, sample, pred)
            };
            // delta = clamp(diff / step, -8, 7)
            let q = fb.bin(BinOp::Div, diff, step);
            let lo = Operand::const_int(-8);
            let hi = Operand::const_int(7);
            let too_lo = fb.icmp(Pred::Lt, q, lo);
            let c1 = fb.select(Type::I64, too_lo, lo, q);
            let too_hi = fb.icmp(Pred::Gt, c1, hi);
            let delta = fb.select(Type::I64, too_hi, hi, c1);
            // predicted += delta * step
            let dstep = fb.bin(BinOp::Mul, delta, step);
            let pred2 = fb.bin(BinOp::Add, pred, dstep);
            // step adaptation: bigger deltas grow the step.
            let neg = fb.icmp(Pred::Lt, delta, Operand::const_int(0));
            let negated = fb.neg(delta);
            let mag0 = fb.select(Type::I64, neg, negated, delta);
            let grow = fb.icmp(Pred::Gt, mag0, Operand::const_int(4));
            let stepg = fb.bin(BinOp::Mul, step, Operand::const_int(2));
            let steps = fb.bin(BinOp::Div, step, Operand::const_int(2));
            let step1 = fb.select(Type::I64, grow, stepg, steps);
            // keep step >= 1 and <= 2048
            let small = fb.icmp(Pred::Lt, step1, Operand::const_int(1));
            let step2 = fb.select(Type::I64, small, Operand::const_int(1), step1);
            let big = fb.icmp(Pred::Gt, step2, Operand::const_int(2048));
            let step3 = fb.select(Type::I64, big, Operand::const_int(2048), step2);
            let sum2 = fb.bin(BinOp::Add, sum, pred2);
            vec![pred2, step3, sum2]
        },
    );
    fb.ret(Some(out[2]));
    fb.finish()
}

/// Feistel cipher rounds with S-box lookups (cBench `blowfish_*`,
/// `rijndael_*`; `decrypt` reverses round-key order).
pub fn emit_feistel(
    mb: &mut ModuleBuilder,
    fname: &str,
    n_blocks: u32,
    rounds: u32,
    decrypt: bool,
) -> FuncId {
    let sbox = mb.add_const_global(format!("{fname}_sbox"), 256, fill(0x5b0c, 256, 1 << 32));
    let keys: Vec<i64> = fill(0x4e45, rounds as usize, 1 << 32);
    let keys_g = mb.add_const_global(
        format!("{fname}_rk"),
        rounds,
        if decrypt {
            keys.iter().rev().copied().collect()
        } else {
            keys
        },
    );
    let data = mb.add_global(
        format!("{fname}_blocks"),
        n_blocks * 2,
        fill(0xb10c, (n_blocks * 2) as usize, 1 << 32),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (ps, pk, pd) = (
        Operand::Global(sbox),
        Operand::Global(keys_g),
        Operand::Global(data),
    );
    counted_loop(
        &mut fb,
        Operand::const_int(n_blocks as i64),
        &[],
        |fb, b, _| {
            let li = fb.bin(BinOp::Mul, b, Operand::const_int(2));
            let ri = fb.bin(BinOp::Add, li, Operand::const_int(1));
            let lp = fb.gep(pd, li);
            let rp = fb.gep(pd, ri);
            let l0 = fb.load(Type::I64, lp);
            let r0 = fb.load(Type::I64, rp);
            let fin = counted_loop(
                fb,
                Operand::const_int(rounds as i64),
                &[(Type::I64, l0), (Type::I64, r0)],
                |fb, r, st| {
                    let (l, rr) = (st[0], st[1]);
                    let kp = fb.gep(pk, r);
                    let k = fb.load(Type::I64, kp);
                    let mixed = fb.bin(BinOp::Xor, rr, k);
                    let idx = fb.bin(BinOp::And, mixed, Operand::const_int(0xFF));
                    let sp = fb.gep(ps, idx);
                    let sv = fb.load(Type::I64, sp);
                    let f = fb.bin(BinOp::Add, sv, mixed);
                    let l2 = fb.bin(BinOp::Xor, l, f);
                    vec![rr, l2] // swap halves
                },
            );
            fb.store(lp, fin[0]);
            fb.store(rp, fin[1]);
            vec![]
        },
    );
    let sum = counted_loop(
        &mut fb,
        Operand::const_int((n_blocks * 2) as i64),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, st| {
            let p = fb.gep(pd, i);
            let v = fb.load(Type::I64, p);
            vec![fb.bin(BinOp::Xor, st[0], v)]
        },
    );
    fb.ret(Some(sum[0]));
    fb.finish()
}

/// 8×8 DCT-like float transform over `n_blocks` blocks (cBench `jpeg_*`).
pub fn emit_dct8x8(mb: &mut ModuleBuilder, fname: &str, n_blocks: u32) -> FuncId {
    let data = mb.add_global(
        format!("{fname}_pix"),
        n_blocks * 64,
        fill(0xdc78, (n_blocks * 64) as usize, 256),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let pd = Operand::Global(data);
    let out = counted_loop(
        &mut fb,
        Operand::const_int(n_blocks as i64),
        &[(Type::F64, Operand::const_float(0.0))],
        |fb, b, accs| {
            let off = fb.bin(BinOp::Mul, b, Operand::const_int(64));

            counted_loop(
                fb,
                Operand::const_int(8),
                &[(Type::F64, accs[0])],
                |fb, u, st| {
                    let inner = counted_loop(
                        fb,
                        Operand::const_int(8),
                        &[(Type::F64, Operand::const_float(0.0))],
                        |fb, x, st2| {
                            let row = fb.bin(BinOp::Mul, u, Operand::const_int(8));
                            let rowx = fb.bin(BinOp::Add, row, x);
                            let idx = fb.bin(BinOp::Add, off, rowx);
                            let p = fb.gep(pd, idx);
                            let v = fb.load(Type::I64, p);
                            let vf = fb.cast(CastKind::IntToFloat, v);
                            // cos approximation: c = 1 - t²/2 with t = x*u/10
                            let xu = fb.bin(BinOp::Mul, x, u);
                            let xuf = fb.cast(CastKind::IntToFloat, xu);
                            let t = fb.bin(BinOp::FMul, xuf, Operand::const_float(0.1));
                            let t2 = fb.bin(BinOp::FMul, t, t);
                            let half = fb.bin(BinOp::FMul, t2, Operand::const_float(0.5));
                            let c = fb.bin(BinOp::FSub, Operand::const_float(1.0), half);
                            let prod = fb.bin(BinOp::FMul, vf, c);
                            vec![fb.bin(BinOp::FAdd, st2[0], prod)]
                        },
                    );
                    vec![fb.bin(BinOp::FAdd, st[0], inner[0])]
                },
            )
        },
    );
    let i = fb.cast(CastKind::FloatToInt, out[0]);
    fb.ret(Some(i));
    fb.finish()
}

/// Bytecode-VM interpreter: a fetch–decode–execute switch loop (CHStone
/// `mips`; stands in for big control-heavy programs like `ghostscript`).
pub fn emit_vm_interp(mb: &mut ModuleBuilder, fname: &str, program_len: u32, steps: u32) -> FuncId {
    // Opcodes 0..6, operands derived from the stream.
    let prog = mb.add_const_global(
        format!("{fname}_prog"),
        program_len,
        fill(0x1f2e, program_len as usize, 7),
    );
    let mem = mb.add_global(format!("{fname}_vmmem"), 64, fill(0x33aa, 64, 1000));
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (pp, pm) = (Operand::Global(prog), Operand::Global(mem));
    let out = counted_loop(
        &mut fb,
        Operand::const_int(steps as i64),
        &[
            (Type::I64, Operand::const_int(0)), // pc
            (Type::I64, Operand::const_int(1)), // acc register
        ],
        |fb, _i, st| {
            let (pc, acc) = (st[0], st[1]);
            let fp = fb.gep(pp, pc);
            let opcode = fb.load(Type::I64, fp);
            let addr = fb.bin(BinOp::And, acc, Operand::const_int(63));
            let mp = fb.gep(pm, addr);

            let join = fb.new_block();
            let default = fb.new_block();
            let mut arms = Vec::new();
            for _ in 0..6 {
                arms.push(fb.new_block());
            }
            let cases: Vec<(i64, cg_ir::BlockId)> = arms
                .iter()
                .enumerate()
                .map(|(c, b)| (c as i64, *b))
                .collect();
            fb.switch(opcode, cases, default);
            let mut incomings = Vec::new();
            // 0: load  acc = mem[addr]
            fb.switch_to(arms[0]);
            let v0 = fb.load(Type::I64, mp);
            fb.br(join);
            incomings.push((arms[0], v0));
            // 1: store mem[addr] = acc
            fb.switch_to(arms[1]);
            fb.store(mp, acc);
            fb.br(join);
            incomings.push((arms[1], acc));
            // 2: add
            fb.switch_to(arms[2]);
            let m2 = fb.load(Type::I64, mp);
            let v2 = fb.bin(BinOp::Add, acc, m2);
            fb.br(join);
            incomings.push((arms[2], v2));
            // 3: xor-shift
            fb.switch_to(arms[3]);
            let s3 = fb.bin(BinOp::Shl, acc, Operand::const_int(7));
            let v3 = fb.bin(BinOp::Xor, acc, s3);
            fb.br(join);
            incomings.push((arms[3], v3));
            // 4: mul
            fb.switch_to(arms[4]);
            let m4 = fb.load(Type::I64, mp);
            let v4 = fb.bin(BinOp::Mul, acc, m4);
            fb.br(join);
            incomings.push((arms[4], v4));
            // 5: neg
            fb.switch_to(arms[5]);
            let v5 = fb.neg(acc);
            fb.br(join);
            incomings.push((arms[5], v5));
            // default: nop
            fb.switch_to(default);
            fb.br(join);
            incomings.push((default, acc));

            fb.switch_to(join);
            let acc2 = fb.phi(Type::I64, incomings);
            let pc1 = fb.bin(BinOp::Add, pc, Operand::const_int(1));
            let wrap = fb.icmp(Pred::Ge, pc1, Operand::const_int(program_len as i64));
            let pc2 = fb.select(Type::I64, wrap, Operand::const_int(0), pc1);
            vec![pc2, acc2]
        },
    );
    fb.ret(Some(out[1]));
    fb.finish()
}

/// Run-length encode into an output buffer (cBench `bzip2*` stand-in).
pub fn emit_rle(mb: &mut ModuleBuilder, fname: &str, n: u32) -> FuncId {
    // Runs are likely: values drawn from a tiny alphabet.
    let data = mb.add_const_global(format!("{fname}_in"), n, fill(0x41e0, n as usize, 4));
    let out_g = mb.add_global(format!("{fname}_out"), n * 2, vec![0; (n * 2) as usize]);
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (pi, po) = (Operand::Global(data), Operand::Global(out_g));
    let fin = counted_loop(
        &mut fb,
        Operand::const_int(n as i64),
        &[
            (Type::I64, Operand::const_int(-1)), // current run value
            (Type::I64, Operand::const_int(0)),  // run length
            (Type::I64, Operand::const_int(0)),  // out cursor
        ],
        |fb, i, st| {
            let (run_v, run_len, cur) = (st[0], st[1], st[2]);
            let p = fb.gep(pi, i);
            let v = fb.load(Type::I64, p);
            let same = fb.icmp(Pred::Eq, v, run_v);
            let then_b = fb.new_block();
            let else_b = fb.new_block();
            let join = fb.new_block();
            fb.cond_br(same, then_b, else_b);
            // same: extend run
            fb.switch_to(then_b);
            let len2 = fb.bin(BinOp::Add, run_len, Operand::const_int(1));
            fb.br(join);
            // differs: flush (value, length) pair and start new run
            fb.switch_to(else_b);
            let vp = fb.gep(po, cur);
            fb.store(vp, run_v);
            let cur1 = fb.bin(BinOp::Add, cur, Operand::const_int(1));
            let lp = fb.gep(po, cur1);
            fb.store(lp, run_len);
            let cur2 = fb.bin(BinOp::Add, cur1, Operand::const_int(1));
            fb.br(join);
            fb.switch_to(join);
            let new_v = fb.phi(Type::I64, vec![(then_b, run_v), (else_b, v)]);
            let new_len = fb.phi(
                Type::I64,
                vec![(then_b, len2), (else_b, Operand::const_int(1))],
            );
            let new_cur = fb.phi(Type::I64, vec![(then_b, cur), (else_b, cur2)]);
            vec![new_v, new_len, new_cur]
        },
    );
    // Checksum over the emitted pairs.
    let sum = counted_loop(
        &mut fb,
        fin[2],
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, st| {
            let p = fb.gep(po, i);
            let v = fb.load(Type::I64, p);
            let rot = fb.bin(BinOp::Shl, st[0], Operand::const_int(1));
            vec![fb.bin(BinOp::Add, rot, v)]
        },
    );
    fb.ret(Some(sum[0]));
    fb.finish()
}

/// Hash-table probing loop (cBench `ispell`/`patricia` stand-in: pointer-ish
/// chasing with data-dependent exits).
pub fn emit_hash_probe(
    mb: &mut ModuleBuilder,
    fname: &str,
    n_keys: u32,
    table_pow2: u32,
) -> FuncId {
    let tsize = 1u32 << table_pow2;
    let mask = (tsize - 1) as i64;
    let table = mb.add_global(format!("{fname}_table"), tsize, {
        let mut t = vec![0i64; tsize as usize];
        for (i, v) in fill(0x7ab1, (tsize / 2) as usize, 1 << 20)
            .iter()
            .enumerate()
        {
            t[(v % tsize as i64) as usize] = i as i64 + 1;
        }
        t
    });
    let keys = mb.add_const_global(
        format!("{fname}_keys"),
        n_keys,
        fill(0x6e1d, n_keys as usize, 1 << 20),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (pt, pk) = (Operand::Global(table), Operand::Global(keys));
    let out = counted_loop(
        &mut fb,
        Operand::const_int(n_keys as i64),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, st| {
            let kp = fb.gep(pk, i);
            let k = fb.load(Type::I64, kp);
            // Linear probe until an empty slot, max 8 probes.
            let probe = counted_loop(
                fb,
                Operand::const_int(8),
                &[
                    (Type::I64, k),                     // slot cursor
                    (Type::I64, Operand::const_int(0)), // found payload
                ],
                |fb, _j, st2| {
                    let slot = fb.bin(BinOp::And, st2[0], Operand::const_int(mask));
                    let sp = fb.gep(pt, slot);
                    let v = fb.load(Type::I64, sp);
                    let hit = fb.icmp(Pred::Ne, v, Operand::const_int(0));
                    let payload = fb.select(Type::I64, hit, v, st2[1]);
                    let next = fb.bin(BinOp::Add, st2[0], Operand::const_int(1));
                    vec![next, payload]
                },
            );
            vec![fb.bin(BinOp::Add, st[0], probe[1])]
        },
    );
    fb.ret(Some(out[0]));
    fb.finish()
}

/// Autocorrelation over a signal (cBench `gsm`, `lame` stand-in).
pub fn emit_autocorr(mb: &mut ModuleBuilder, fname: &str, n: u32, lags: u32) -> FuncId {
    let sig = mb.add_const_global(format!("{fname}_sig"), n, fill(0x95a3, n as usize, 4096));
    let out_g = mb.add_global(format!("{fname}_acf"), lags, vec![0; lags as usize]);
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (ps, po) = (Operand::Global(sig), Operand::Global(out_g));
    counted_loop(
        &mut fb,
        Operand::const_int(lags as i64),
        &[],
        |fb, lag, _| {
            let len = fb.bin(BinOp::Sub, Operand::const_int(n as i64), lag);
            let acc = counted_loop(
                fb,
                len,
                &[(Type::I64, Operand::const_int(0))],
                |fb, t, st| {
                    let p1 = fb.gep(ps, t);
                    let v1 = fb.load(Type::I64, p1);
                    let tl = fb.bin(BinOp::Add, t, lag);
                    let p2 = fb.gep(ps, tl);
                    let v2 = fb.load(Type::I64, p2);
                    let prod = fb.bin(BinOp::Mul, v1, v2);
                    let scaled = fb.bin(BinOp::AShr, prod, Operand::const_int(4));
                    vec![fb.bin(BinOp::Add, st[0], scaled)]
                },
            );
            let op = fb.gep(po, lag);
            fb.store(op, acc[0]);
            vec![]
        },
    );
    let sum = counted_loop(
        &mut fb,
        Operand::const_int(lags as i64),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, st| {
            let p = fb.gep(po, i);
            let v = fb.load(Type::I64, p);
            vec![fb.bin(BinOp::Xor, st[0], v)]
        },
    );
    fb.ret(Some(sum[0]));
    fb.finish()
}

/// Histogram + byte packing loops (cBench `tiff2bw` stand-in).
pub fn emit_histogram(mb: &mut ModuleBuilder, fname: &str, n: u32) -> FuncId {
    let data = mb.add_const_global(format!("{fname}_pix"), n, fill(0x7177, n as usize, 256));
    let hist = mb.add_global(format!("{fname}_hist"), 256, vec![0; 256]);
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (pd, ph) = (Operand::Global(data), Operand::Global(hist));
    counted_loop(&mut fb, Operand::const_int(n as i64), &[], |fb, i, _| {
        let p = fb.gep(pd, i);
        let v = fb.load(Type::I64, p);
        let hp = fb.gep(ph, v);
        let c = fb.load(Type::I64, hp);
        let c1 = fb.bin(BinOp::Add, c, Operand::const_int(1));
        fb.store(hp, c1);
        vec![]
    });
    // Weighted sum over the histogram (the "threshold" computation).
    let out = counted_loop(
        &mut fb,
        Operand::const_int(256),
        &[(Type::I64, Operand::const_int(0))],
        |fb, i, st| {
            let p = fb.gep(ph, i);
            let c = fb.load(Type::I64, p);
            let w = fb.bin(BinOp::Mul, c, i);
            vec![fb.bin(BinOp::Add, st[0], w)]
        },
    );
    fb.ret(Some(out[0]));
    fb.finish()
}

/// Chained double-precision arithmetic (CHStone `dfadd`/`dfmul`/`dfdiv`).
pub fn emit_float_chain(mb: &mut ModuleBuilder, fname: &str, n: u32, op: BinOp) -> FuncId {
    let data = mb.add_const_global(format!("{fname}_xs"), n, fill(0xdf00, n as usize, 1000));
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let pd = Operand::Global(data);
    let out = counted_loop(
        &mut fb,
        Operand::const_int(n as i64),
        &[(Type::F64, Operand::const_float(1.0))],
        |fb, i, st| {
            let p = fb.gep(pd, i);
            let v = fb.load(Type::I64, p);
            let vf = fb.cast(CastKind::IntToFloat, v);
            // keep magnitudes tame: x = 1 + v/2048
            let scaled = fb.bin(BinOp::FMul, vf, Operand::const_float(1.0 / 2048.0));
            let x = fb.bin(BinOp::FAdd, scaled, Operand::const_float(1.0));
            let next = fb.bin(op, st[0], x);
            // renormalize to avoid inf: y = y / 2 when |y| > 1e12, via select
            let too_big = fb.fcmp(Pred::Gt, next, Operand::const_float(1e12));
            let halved = fb.bin(BinOp::FMul, next, Operand::const_float(0.5));
            let kept = fb.select(Type::F64, too_big, halved, next);
            vec![kept]
        },
    );
    let i = fb.cast(CastKind::FloatToInt, out[0]);
    fb.ret(Some(i));
    fb.finish()
}

/// Taylor-series sine evaluation in a loop (CHStone `dfsin`).
pub fn emit_sine_taylor(mb: &mut ModuleBuilder, fname: &str, n: u32) -> FuncId {
    let data = mb.add_const_global(format!("{fname}_angles"), n, fill(0x517e, n as usize, 6283));
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let pd = Operand::Global(data);
    let out = counted_loop(
        &mut fb,
        Operand::const_int(n as i64),
        &[(Type::F64, Operand::const_float(0.0))],
        |fb, i, st| {
            let p = fb.gep(pd, i);
            let raw = fb.load(Type::I64, p);
            let mf = fb.cast(CastKind::IntToFloat, raw);
            let x = fb.bin(BinOp::FMul, mf, Operand::const_float(0.001));
            // sin(x) ≈ x - x³/6 + x⁵/120 - x⁷/5040
            let x2 = fb.bin(BinOp::FMul, x, x);
            let x3 = fb.bin(BinOp::FMul, x2, x);
            let x5 = fb.bin(BinOp::FMul, x3, x2);
            let x7 = fb.bin(BinOp::FMul, x5, x2);
            let t3 = fb.bin(BinOp::FDiv, x3, Operand::const_float(6.0));
            let t5 = fb.bin(BinOp::FDiv, x5, Operand::const_float(120.0));
            let t7 = fb.bin(BinOp::FDiv, x7, Operand::const_float(5040.0));
            let s1 = fb.bin(BinOp::FSub, x, t3);
            let s2 = fb.bin(BinOp::FAdd, s1, t5);
            let s3 = fb.bin(BinOp::FSub, s2, t7);
            vec![fb.bin(BinOp::FAdd, st[0], s3)]
        },
    );
    let scaled = fb.bin(BinOp::FMul, out[0], Operand::const_float(1e6));
    let i = fb.cast(CastKind::FloatToInt, scaled);
    fb.ret(Some(i));
    fb.finish()
}

/// Motion-estimation style sum-of-absolute-differences search (CHStone
/// `motion`).
pub fn emit_sad_search(mb: &mut ModuleBuilder, fname: &str, block: u32, search: u32) -> FuncId {
    let frame_len = (block + search) * (block + search);
    let cur = mb.add_const_global(
        format!("{fname}_cur"),
        block * block,
        fill(0xc0de, (block * block) as usize, 256),
    );
    let reference = mb.add_const_global(
        format!("{fname}_ref"),
        frame_len,
        fill(0xfeed, frame_len as usize, 256),
    );
    let mut fb = mb.begin_function(fname, &[], Type::I64);
    let (pc, pr) = (Operand::Global(cur), Operand::Global(reference));
    let stride = (block + search) as i64;
    let out = counted_loop(
        &mut fb,
        Operand::const_int(search as i64),
        &[(Type::I64, Operand::const_int(i64::MAX / 4))],
        |fb, dy, best_out| {
            counted_loop(
                fb,
                Operand::const_int(search as i64),
                &[(Type::I64, best_out[0])],
                |fb, dx, best| {
                    let sad = counted_loop(
                        fb,
                        Operand::const_int(block as i64),
                        &[(Type::I64, Operand::const_int(0))],
                        |fb, y, acc| {
                            counted_loop(
                                fb,
                                Operand::const_int(block as i64),
                                &[(Type::I64, acc[0])],
                                |fb, x, acc2| {
                                    let crow =
                                        fb.bin(BinOp::Mul, y, Operand::const_int(block as i64));
                                    let cidx = fb.bin(BinOp::Add, crow, x);
                                    let cp = fb.gep(pc, cidx);
                                    let cv = fb.load(Type::I64, cp);
                                    let ry = fb.bin(BinOp::Add, y, dy);
                                    let rrow = fb.bin(BinOp::Mul, ry, Operand::const_int(stride));
                                    let rx = fb.bin(BinOp::Add, x, dx);
                                    let ridx = fb.bin(BinOp::Add, rrow, rx);
                                    let rp = fb.gep(pr, ridx);
                                    let rv = fb.load(Type::I64, rp);
                                    let d = fb.bin(BinOp::Sub, cv, rv);
                                    let neg = fb.icmp(Pred::Lt, d, Operand::const_int(0));
                                    let nd = fb.neg(d);
                                    let ad = fb.select(Type::I64, neg, nd, d);
                                    vec![fb.bin(BinOp::Add, acc2[0], ad)]
                                },
                            )
                        },
                    );
                    let better = fb.icmp(Pred::Lt, sad[0], best[0]);
                    let nb = fb.select(Type::I64, better, sad[0], best[0]);
                    vec![nb]
                },
            )
        },
    );
    fb.ret(Some(out[0]));
    fb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_ir::interp::{run_main, ExecLimits};
    use cg_ir::verify::verify_module;

    fn check(m: Module) -> i64 {
        verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", m.name));
        let out =
            run_main(&m, &ExecLimits::default()).unwrap_or_else(|e| panic!("{}: {e}", m.name));
        out.ret.unwrap().as_int().unwrap()
    }

    #[test]
    fn all_kernels_verify_and_run() {
        check(single("crc32", |mb| emit_crc32(mb, "k", 256)));
        check(single("qsort", |mb| emit_sort_kernel(mb, "k", 64)));
        check(single("dijkstra", |mb| emit_dijkstra(mb, "k", 12)));
        check(single("sha", |mb| emit_sha_mix(mb, "k", 8)));
        check(single("fir", |mb| emit_fir(mb, "k", 128, 16)));
        check(single("matmul", |mb| emit_matmul(mb, "k", 10)));
        check(single("bitcount", |mb| emit_bitcount(mb, "k", 64)));
        check(single("stringsearch", |mb| {
            emit_stringsearch(mb, "k", 256, 8)
        }));
        check(single("susan", |mb| emit_stencil2d(mb, "k", 20, 16)));
        check(single("adpcm_c", |mb| emit_adpcm(mb, "k", 128, true)));
        check(single("adpcm_d", |mb| emit_adpcm(mb, "k", 128, false)));
        check(single("blowfish_e", |mb| {
            emit_feistel(mb, "k", 32, 16, false)
        }));
        check(single("blowfish_d", |mb| {
            emit_feistel(mb, "k", 32, 16, true)
        }));
        check(single("jpeg_c", |mb| emit_dct8x8(mb, "k", 6)));
        check(single("mips", |mb| emit_vm_interp(mb, "k", 64, 500)));
        check(single("bzip2e", |mb| emit_rle(mb, "k", 256)));
        check(single("ispell", |mb| emit_hash_probe(mb, "k", 64, 8)));
        check(single("gsm", |mb| emit_autocorr(mb, "k", 128, 8)));
        check(single("tiff2bw", |mb| emit_histogram(mb, "k", 256)));
        check(single("dfmul", |mb| {
            emit_float_chain(mb, "k", 128, BinOp::FMul)
        }));
        check(single("dfsin", |mb| emit_sine_taylor(mb, "k", 64)));
        check(single("motion", |mb| emit_sad_search(mb, "k", 6, 6)));
    }

    #[test]
    fn compose_builds_multi_kernel_modules() {
        let m = compose(
            "ghostscript",
            vec![
                Box::new(|mb: &mut ModuleBuilder| emit_vm_interp(mb, "vm0", 64, 400)),
                Box::new(|mb: &mut ModuleBuilder| emit_rle(mb, "rle0", 128)),
                Box::new(|mb: &mut ModuleBuilder| emit_histogram(mb, "hist0", 128)),
            ],
        );
        assert_eq!(m.num_functions(), 4); // 3 kernels + main
        check(m);
    }

    #[test]
    fn crc32_matches_reference() {
        // Cross-check the IR CRC against a Rust reference implementation on
        // the same generated data.
        let n = 128u32;
        let data = fill(0xc3c3, n as usize, 256);
        let mut table = [0u64; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u64;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        let mut crc: u64 = 0xFFFF_FFFF;
        for &b in &data {
            let idx = ((crc ^ b as u64) & 0xFF) as usize;
            crc = (crc >> 8) ^ table[idx];
        }
        let expect = (crc ^ 0xFFFF_FFFF) as i64;
        assert_eq!(check(single("crc32", |mb| emit_crc32(mb, "k", n))), expect);
    }

    #[test]
    fn sort_kernel_actually_sorts() {
        // The checksum of a sorted array equals sum(sorted[i] * i).
        let n = 64u32;
        let mut data = fill(0x50f7, n as usize, 10_000);
        data.sort();
        let expect: i64 = data.iter().enumerate().map(|(i, v)| v * i as i64).sum();
        assert_eq!(
            check(single("qsort", |mb| emit_sort_kernel(mb, "k", n))),
            expect
        );
    }

    #[test]
    fn encode_decode_differ() {
        let enc = check(single("c", |mb| emit_adpcm(mb, "k", 64, true)));
        let dec = check(single("d", |mb| emit_adpcm(mb, "k", 64, false)));
        assert_ne!(enc, dec);
        let fe = check(single("e", |mb| emit_feistel(mb, "k", 8, 8, false)));
        let fd = check(single("d", |mb| emit_feistel(mb, "k", 8, 8, true)));
        assert_ne!(fe, fd);
    }
}
