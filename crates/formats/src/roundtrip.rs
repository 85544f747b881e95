//! The single-pass quantise→dequantise round trip of a whole tensor.
//!
//! The emulation hook's steady state is a round trip on every hooked layer
//! output where no fault lands: the quantised intermediate is never
//! inspected, so the two-pass route (`real_to_format_tensor` allocating a
//! `Quantized`, then `format_to_real_tensor` copying the values back out)
//! collapses into [`NumberFormat::roundtrip_into`], one pass into one
//! buffer. Every built-in family implements it with the same kernel as
//! its Method 1, so the two routes agree bitwise by construction; the
//! conformance law `roundtrip-agreement` checks it over the whole zoo.

use crate::format::NumberFormat;
use tensor::Tensor;

/// Round-trips `t` through `format` in one pass via
/// [`NumberFormat::roundtrip_into`]: bitwise equal to
/// `format.format_to_real_tensor(&format.real_to_format_tensor(t))`, with
/// the metadata derived from the whole tensor.
///
/// Returns `Some` for every format. The `Option` is kept from when only
/// metadata-free formats had a single-pass route, so existing callers
/// keep compiling.
pub fn fused_roundtrip(format: &dyn NumberFormat, t: &Tensor) -> Option<Tensor> {
    let mut out = vec![0.0f32; t.numel()];
    format.roundtrip_into(t.as_slice(), &mut out);
    Some(Tensor::from_vec(out, t.shape().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AdaptivFloat, BlockFloatingPoint, FixedPoint, FloatingPoint, GoldenFloat, IntQuant, MxElem,
        MxFloat, Posit, P3109,
    };
    use tensor::parallel::with_threads;

    fn ramp() -> Tensor {
        let mut v: Vec<f32> =
            (0..5000).map(|i| (i as f32 - 2500.0) * 0.013 + 1.0 / (i as f32 + 1.0)).collect();
        v.extend([0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-30, -1e30]);
        let n = v.len();
        Tensor::from_vec(v, [n])
    }

    #[test]
    fn roundtrip_matches_two_pass_for_every_family() {
        let t = ramp();
        let formats: Vec<Box<dyn NumberFormat>> = vec![
            Box::new(FloatingPoint::fp8_e4m3()),
            Box::new(FloatingPoint::bfloat16()),
            Box::new(FixedPoint::new(3, 4)),
            Box::new(IntQuant::new(8)),
            Box::new(BlockFloatingPoint::new(5, 5, 16)),
            Box::new(BlockFloatingPoint::per_tensor(8, 7)),
            Box::new(AdaptivFloat::new(4, 3)),
            Box::new(MxFloat::new(MxElem::Fp8E4m3, 32)),
            Box::new(Posit::new(8, 0)),
            Box::new(P3109::new(4, 3)),
            Box::new(GoldenFloat::new(16)),
        ];
        for format in &formats {
            let two_pass = format.format_to_real_tensor(&format.real_to_format_tensor(&t));
            for threads in [1usize, 4] {
                let _g = with_threads(threads);
                let one_pass = fused_roundtrip(format.as_ref(), &t).expect("every format");
                assert_eq!(one_pass.dims(), t.dims());
                for (i, (a, b)) in one_pass.as_slice().iter().zip(two_pass.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} t={threads} elem {i}: one pass {a} vs two-pass {b}",
                        format.name()
                    );
                }
            }
        }
    }
}
