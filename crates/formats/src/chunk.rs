//! Chunk-parallel tensor quantisation.
//!
//! Method 1 (`real_to_format_tensor`) and the round trip
//! (`NumberFormat::roundtrip_into`) are the hottest format operations —
//! every hooked layer output runs through one of them once per trial. Both
//! run every built-in family through the helpers here: an elementwise map
//! ([`map_into`]), a max-abs reduction ([`max_abs`]) for per-tensor scales,
//! and a per-block kernel ([`map_blocks_into`]) for BFP and MX. All of them
//! share one guarded chunk loop that dispatches fixed-size chunks to the
//! intra-op worker pool ([`tensor::parallel`]) only for large tensors.
//!
//! Chunk boundaries are a pure function of the tensor length (never the
//! thread count), every element is written by exactly one task, and
//! reductions fold per-chunk partials in chunk order — so quantised
//! outputs are **byte-identical** for every `--jobs` / thread-budget
//! setting. `tests/kernels.rs` pins this across 1/2/8 threads.

use std::sync::OnceLock;
use std::time::Instant;

use tensor::{parallel, Tensor};

/// Elements per parallel work unit. Fixed — never derived from the thread
/// count — which is what makes chunked output thread-count invariant.
const QUANT_CHUNK: usize = 4096;

/// Below this many elements a quantise pass stays on the calling thread:
/// `tensor::parallel` spawns scoped OS threads per dispatch (~1 ms on
/// containerised hosts), which swamps the quantise work for the layer
/// outputs of the evaluation models. The guard only affects latency —
/// chunk boundaries, and therefore results, are identical either way.
pub const PAR_MIN_ELEMS: usize = 1 << 20;

struct QuantMetrics {
    ns: &'static trace::Metric,
    elems: &'static trace::Metric,
}

fn quant_metrics() -> &'static QuantMetrics {
    static METRICS: OnceLock<QuantMetrics> = OnceLock::new();
    METRICS.get_or_init(|| QuantMetrics {
        ns: trace::histogram(trace::names::FORMATS_QUANTIZE_CHUNKED_NS),
        elems: trace::counter(trace::names::FORMATS_QUANTIZE_CHUNKED_ELEMS),
    })
}

/// Runs `f(i, piece)` over the fixed `chunk`-sized pieces of `out` — the
/// one chunk loop behind every tensor quantiser in this crate. `elems` is
/// the number of tensor elements the whole pass reads: below
/// [`PAR_MIN_ELEMS`] the loop stays on the calling thread, above it the
/// pieces go to the worker pool. Piece boundaries never depend on the
/// thread count, so neither do results.
fn par_chunks<T: Send>(
    elems: usize,
    out: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if elems < PAR_MIN_ELEMS {
        out.chunks_mut(chunk).enumerate().for_each(|(i, piece)| f(i, piece));
    } else {
        parallel::par_chunks_mut(out, chunk, f);
    }
}

/// Records one timed quantise pass over `elems` elements.
fn record_pass(t0: Option<Instant>, elems: usize) {
    if let Some(t0) = t0 {
        let metrics = quant_metrics();
        metrics.ns.record(t0.elapsed().as_nanos() as u64);
        metrics.elems.add(elems as u64);
    }
}

/// Writes `f(src[i])` into `dst[i]` over fixed [`QUANT_CHUNK`]-sized
/// chunks; the single-pass kernel of every elementwise format.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub(crate) fn map_into(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    assert_eq!(src.len(), dst.len(), "quantise length mismatch");
    let t0 = trace::recording().then(Instant::now);
    par_chunks(src.len(), dst, QUANT_CHUNK, |i, out| {
        let src = &src[i * QUANT_CHUNK..][..out.len()];
        for (v, &x) in out.iter_mut().zip(src) {
            *v = f(x);
        }
    });
    record_pass(t0, src.len());
}

/// [`map_into`] into a fresh tensor of `t`'s shape; the drop-in parallel
/// replacement for `t.map(f)` in `real_to_format_tensor` implementations.
pub(crate) fn map_chunked(t: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let mut out = vec![0.0f32; t.numel()];
    map_into(t.as_slice(), &mut out, f);
    Tensor::from_vec(out, t.shape().clone())
}

/// Serial `max |x|` fold from 0.0, bit-identical to `Tensor::max_abs`
/// (NaN elements are ignored, as `m.max(NaN) == m`).
fn max_abs_serial(src: &[f32]) -> f32 {
    src.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Chunk-parallel `max |x|` reduction, bit-identical to
/// `Tensor::max_abs`: each chunk folds `m.max(x.abs())` from 0.0 exactly
/// like the serial fold, and the per-chunk partials are folded in chunk
/// order. `f32::max` is exact, so regrouping cannot change the result.
pub(crate) fn max_abs(src: &[f32]) -> f32 {
    let mut partials = vec![0.0f32; src.len().div_ceil(QUANT_CHUNK).max(1)];
    par_chunks(src.len(), &mut partials, 1, |i, slot| {
        let start = i * QUANT_CHUNK;
        slot[0] = max_abs_serial(&src[start..(start + QUANT_CHUNK).min(src.len())]);
    });
    max_abs_serial(&partials)
}

/// The block-scaled kernel shared by BFP and MX: splits `src` into blocks
/// of `block_size` elements (one block when `block_size` exceeds the
/// length, as for per-tensor BFP), derives each block's register code
/// with `code_for(max |x| of the block)`, and maps the block into `dst`
/// with `map_block(code, src_block, dst_block)` while it is still in
/// cache. Returns the codes, one per block.
///
/// A parallel task covers a fixed run of *whole* blocks, so task
/// boundaries align with blocks and the result is identical for every
/// thread count.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length or `block_size` is 0.
pub(crate) fn map_blocks_into(
    src: &[f32],
    dst: &mut [f32],
    block_size: usize,
    code_for: impl Fn(f64) -> u32 + Sync,
    map_block: impl Fn(u32, &[f32], &mut [f32]) + Sync,
) -> Vec<u32> {
    assert_eq!(src.len(), dst.len(), "quantise length mismatch");
    assert!(block_size > 0, "block size must be positive");
    let t0 = trace::recording().then(Instant::now);
    let n = src.len();
    // Effective block extent, clamped so per-tensor blocks
    // (`block_size == usize::MAX`) don't overflow the index math.
    let bs = block_size.min(n.max(1));
    let blocks_per_task = (QUANT_CHUNK / bs).max(1);
    let mut codes = vec![0u32; n.div_ceil(bs)];
    let mut tasks: Vec<(&mut [u32], &mut [f32])> =
        codes.chunks_mut(blocks_per_task).zip(dst.chunks_mut(blocks_per_task * bs)).collect();
    par_chunks(n, &mut tasks, 1, |ti, task| {
        let (codes, out) = &mut task[0];
        let base = ti * blocks_per_task * bs;
        for (bj, (code, out)) in codes.iter_mut().zip(out.chunks_mut(bs)).enumerate() {
            let start = base + bj * bs;
            let block = &src[start..start + out.len()];
            *code = code_for(max_abs_serial(block) as f64);
            map_block(*code, block, out);
        }
    });
    drop(tasks);
    record_pass(t0, n);
    codes
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::parallel::with_threads;

    fn ramp(n: usize) -> Tensor {
        Tensor::from_vec((0..n).map(|i| (i as f32) * 0.37 - 900.0).collect(), [n])
    }

    #[test]
    fn map_chunked_matches_map_across_thread_counts() {
        // Above PAR_MIN_ELEMS so the parallel dispatch path really runs.
        let t = ramp(PAR_MIN_ELEMS + 4097);
        let f = |x: f32| (x * 0.5).floor();
        let serial = t.map(f);
        for threads in [1, 2, 8] {
            let _g = with_threads(threads);
            let par = map_chunked(&t, f);
            assert_eq!(par.dims(), serial.dims());
            for (a, b) in par.as_slice().iter().zip(serial.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn map_blocks_matches_a_serial_block_loop() {
        // Ragged tails, whole-tensor blocks, and a length above
        // PAR_MIN_ELEMS so the parallel dispatch path really runs.
        for (n, bs) in [(0, 16), (1, 16), (31, 16), (33, 16), (5000, usize::MAX)]
            .into_iter()
            .chain([(PAR_MIN_ELEMS + 17, 32)])
        {
            let t = ramp(n);
            let src = t.as_slice();
            let code_for = |m: f64| m.to_bits() as u32;
            let map_block = |code: u32, block: &[f32], out: &mut [f32]| {
                for (v, &x) in out.iter_mut().zip(block) {
                    *v = x + code as f32;
                }
            };
            let (mut want, mut want_codes) = (vec![0.0f32; n], Vec::new());
            for (block, out) in src.chunks(bs.min(n.max(1))).zip(want.chunks_mut(bs.min(n.max(1))))
            {
                let code = code_for(block.iter().fold(0.0f32, |m, x| m.max(x.abs())) as f64);
                map_block(code, block, out);
                want_codes.push(code);
            }
            for threads in [1, 4] {
                let _g = with_threads(threads);
                let mut got = vec![0.0f32; n];
                let codes = map_blocks_into(src, &mut got, bs, code_for, map_block);
                assert_eq!(codes, want_codes, "n={n} bs={bs} t={threads}");
                assert!(got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn max_abs_chunked_matches_serial() {
        for n in [0, 1, 5, 4096, 4097, 20_000] {
            let t = ramp(n);
            let _g = with_threads(4);
            assert_eq!(max_abs(t.as_slice()).to_bits(), t.max_abs().to_bits(), "n={n}");
        }
        let t = Tensor::from_vec(vec![1.0, f32::NAN, -3.0], [3]);
        assert_eq!(max_abs(t.as_slice()), 3.0);
    }
}
