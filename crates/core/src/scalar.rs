//! Plain-old-data scalars moved through MPI messages, plus reduction ops.

/// A fixed-width scalar with little-endian wire conversion.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + Send + 'static {
    /// Width on the wire, in bytes.
    const BYTES: usize;
    /// The little-endian encoding: an array of [`Scalar::BYTES`] bytes.
    type Le: IntoIterator<Item = u8>;
    /// Encodes the value.
    fn to_le(self) -> Self::Le;
    /// Reads a value from `b[..Self::BYTES]`.
    fn read_le(b: &[u8]) -> Self;
    /// Additive identity.
    fn zero() -> Self;
    /// Applies a reduction operator.
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self;
}

/// Built-in reduction operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise product.
    Prod,
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            type Le = [u8; std::mem::size_of::<$t>()];
            #[inline]
            fn to_le(self) -> Self::Le {
                self.to_le_bytes()
            }
            #[inline]
            fn read_le(b: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(&b[..Self::BYTES]);
                <$t>::from_le_bytes(buf)
            }
            #[inline]
            fn zero() -> Self {
                0 as $t
            }
            #[inline]
            fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Max => if a >= b { a } else { b },
                    ReduceOp::Min => if a <= b { a } else { b },
                    ReduceOp::Prod => a * b,
                }
            }
        }
    )*};
}

impl_scalar!(f64, f32, u64, i64, u32, i32, u16, u8);

/// Encodes a slice of scalars to bytes.
pub fn encode_slice<T: Scalar>(xs: &[T]) -> Vec<u8> {
    // Appends into reserved capacity: nothing is zero-filled first.
    let mut out = Vec::with_capacity(xs.len() * T::BYTES);
    out.extend(xs.iter().flat_map(|x| x.to_le()));
    out
}

/// Decodes bytes into a fresh vector of scalars.
///
/// # Panics
/// Panics if `bytes` is not a whole number of elements.
pub fn decode_slice<T: Scalar>(bytes: &[u8]) -> Vec<T> {
    let mut out = Vec::new();
    decode_extend(bytes, &mut out);
    out
}

/// Decodes bytes onto the end of `out` — for gathering several chunks
/// into one vector reserved up front, without a vector per chunk.
///
/// # Panics
/// Panics if `bytes` is not a whole number of elements.
pub fn decode_extend<T: Scalar>(bytes: &[u8], out: &mut Vec<T>) {
    assert_eq!(
        bytes.len() % T::BYTES,
        0,
        "byte length not a multiple of element size"
    );
    out.extend(bytes.chunks_exact(T::BYTES).map(T::read_le));
}

/// Decodes bytes into an existing slice (lengths must match exactly).
pub fn decode_into<T: Scalar>(bytes: &[u8], out: &mut [T]) {
    assert_eq!(bytes.len(), out.len() * T::BYTES, "length mismatch");
    for (chunk, slot) in bytes.chunks_exact(T::BYTES).zip(out.iter_mut()) {
        *slot = T::read_le(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let xs = vec![1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = encode_slice(&xs);
        assert_eq!(bytes.len(), 40);
        assert_eq!(decode_slice::<f64>(&bytes), xs);
    }

    #[test]
    fn roundtrip_various_types() {
        assert_eq!(
            decode_slice::<u8>(&encode_slice(&[1u8, 2, 255])),
            vec![1, 2, 255]
        );
        assert_eq!(decode_slice::<i32>(&encode_slice(&[-7i32, 7])), vec![-7, 7]);
        assert_eq!(
            decode_slice::<u64>(&encode_slice(&[u64::MAX])),
            vec![u64::MAX]
        );
    }

    #[test]
    fn decode_extend_appends() {
        let mut out = vec![7u32];
        decode_extend(&encode_slice(&[1u32, 2]), &mut out);
        decode_extend(&[], &mut out);
        decode_extend(&encode_slice(&[3u32]), &mut out);
        assert_eq!(out, [7, 1, 2, 3]);
    }

    #[test]
    fn decode_into_slice() {
        let bytes = encode_slice(&[3.0f32, 4.0]);
        let mut out = [0.0f32; 2];
        decode_into(&bytes, &mut out);
        assert_eq!(out, [3.0, 4.0]);
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(f64::reduce(ReduceOp::Sum, 1.0, 2.0), 3.0);
        assert_eq!(f64::reduce(ReduceOp::Max, 1.0, 2.0), 2.0);
        assert_eq!(u64::reduce(ReduceOp::Min, 9, 4), 4);
        assert_eq!(i32::reduce(ReduceOp::Prod, -3, 5), -15);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn ragged_decode_panics() {
        let _ = decode_slice::<f64>(&[0u8; 9]);
    }
}
