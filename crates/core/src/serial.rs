//! On-disk serialization of compiled plans — the format behind
//! `spider-runtime`'s `PlanStore`.
//!
//! A [`SpiderPlan`] is the product of the paper's whole ahead-of-time
//! pipeline (band → strided swap → 2:4 compress). Compilation is cheap, but
//! a serving fleet that has compiled a plan once should never compile it
//! again — so the *compiled artifact* is what serializes: the source kernel
//! (for identity and validation) plus every [`PlanUnit`]'s compressed
//! operand pair, dense matrices and window offsets. Deserialization
//! reassembles the plan through `SpiderPlan::from_parts` without touching
//! the compilation pipeline; the derived tables (swap permutation, gather
//! offsets) are pure arithmetic over the stored parts and are re-derived
//! rather than stored.
//!
//! ## Format (version 1, little-endian throughout)
//!
//! ```text
//! magic     8 B   b"SPDRPLAN"
//! version   u32   1
//! parity    u8    0 = Even, 1 = Odd
//! shape     u8 kind (1 = Star, 2 = Box) · u8 dim (1 | 2) · u64 radius
//! coeffs    u64 count · count × u64 (f64 bit patterns)
//! units     u64 count · count × unit
//!   unit    i64 dx · i64 dy · u64 radius
//!           16×32 u32 banded bits · 16×32 u32 swapped bits
//!           2 × (16×8 u32 value bits · 16×8 u8 metadata)
//! fprint    u64   SpiderPlan::fingerprint of the serialized plan
//! payload   u64   FNV-1a over every preceding byte (fprint included)
//! ```
//!
//! Three independent trailers guard three failure classes: the *payload
//! hash* covers every byte of the stream, so any bit rot — including in
//! fields the fingerprint never sees, like a unit's `dx`/`dy`/`radius` or
//! its dense matrices — is rejected; the *fingerprint* (recomputed from
//! the reassembled plan) binds the stream to the kernel identity the
//! caller will file it under; and each operand pair must decompress back
//! to its stored `swapped` matrix, which cross-checks values against
//! metadata structurally. Truncation and cross-version drift fall out of
//! the length/version checks.

use crate::encode::Sparse24Kernel;
use crate::exec3d::Spider3DPlan;
use crate::plan::{PlanUnit, SpiderPlan};
use crate::swap::SwapParity;
use crate::{K_PAD, M_TILE};
use spider_gpu_sim::sparse::Sparse24Operand;
use spider_stencil::dim3::Kernel3D;
use spider_stencil::fnv::Fnv1a;
use spider_stencil::{Dim, ShapeKind, StencilKernel, StencilShape};

/// Magic prefix of every serialized plan.
pub const PLAN_MAGIC: &[u8; 8] = b"SPDRPLAN";

/// Current (and only) format version.
pub const PLAN_FORMAT_VERSION: u32 = 1;

/// Magic prefix of every serialized 3D plan (see [`Spider3DPlan::to_bytes`]).
pub const PLAN3D_MAGIC: &[u8; 8] = b"SPDRPL3D";

/// Current (and only) 3D container format version.
pub const PLAN3D_FORMAT_VERSION: u32 = 1;

/// Why a byte stream failed to deserialize into a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// The stream does not start with [`PLAN_MAGIC`].
    BadMagic,
    /// The stream's version is not [`PLAN_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The stream ended before the structure it promised.
    Truncated,
    /// Structurally well-formed but semantically invalid (bad enum tag,
    /// fingerprint mismatch, operand that does not decompress to its
    /// stored matrix, ...).
    Corrupt(String),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::BadMagic => write!(f, "not a serialized SpiderPlan (bad magic)"),
            SerialError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported plan format version {v} (expected {PLAN_FORMAT_VERSION})"
                )
            }
            SerialError::Truncated => write!(f, "serialized plan is truncated"),
            SerialError::Corrupt(e) => write!(f, "serialized plan is corrupt: {e}"),
        }
    }
}

impl std::error::Error for SerialError {}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SerialError> {
        let end = self.pos.checked_add(n).ok_or(SerialError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SerialError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SerialError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SerialError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SerialError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, SerialError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32_bits(&mut self) -> Result<f32, SerialError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_matrix(out: &mut Vec<u8>, m: &[[f32; K_PAD]; M_TILE]) {
    for row in m {
        for v in row {
            put_u32(out, v.to_bits());
        }
    }
}

fn read_matrix(r: &mut Reader<'_>) -> Result<[[f32; K_PAD]; M_TILE], SerialError> {
    let mut m = [[0.0f32; K_PAD]; M_TILE];
    for row in &mut m {
        for v in row.iter_mut() {
            *v = r.f32_bits()?;
        }
    }
    Ok(m)
}

fn put_operand(out: &mut Vec<u8>, op: &Sparse24Operand) {
    for row in &op.values {
        for v in row {
            put_u32(out, v.to_bits());
        }
    }
    for row in &op.meta {
        out.extend_from_slice(row);
    }
}

fn read_operand(r: &mut Reader<'_>) -> Result<Sparse24Operand, SerialError> {
    let mut values = [[0.0f32; 8]; 16];
    for row in &mut values {
        for v in row.iter_mut() {
            *v = r.f32_bits()?;
        }
    }
    let mut meta = [[0u8; 8]; 16];
    for row in &mut meta {
        row.copy_from_slice(r.take(8)?);
    }
    Ok(Sparse24Operand { values, meta })
}

fn parity_tag(parity: SwapParity) -> u8 {
    match parity {
        SwapParity::Even => 0,
        SwapParity::Odd => 1,
    }
}

fn parity_from_tag(tag: u8) -> Result<SwapParity, SerialError> {
    match tag {
        0 => Ok(SwapParity::Even),
        1 => Ok(SwapParity::Odd),
        t => Err(SerialError::Corrupt(format!("unknown parity tag {t}"))),
    }
}

impl SpiderPlan {
    /// Serialize the compiled plan into the version-1 on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let kernel = self.kernel();
        let shape = kernel.shape();
        let mut out = Vec::with_capacity(64 + self.units().len() * 5 * 1024);
        out.extend_from_slice(PLAN_MAGIC);
        put_u32(&mut out, PLAN_FORMAT_VERSION);
        out.push(parity_tag(self.parity()));
        out.push(match shape.kind {
            ShapeKind::Star => 1,
            ShapeKind::Box => 2,
        });
        out.push(shape.dim.rank() as u8);
        put_u64(&mut out, shape.radius as u64);
        put_u64(&mut out, kernel.coeffs().len() as u64);
        for c in kernel.coeffs() {
            put_u64(&mut out, c.to_bits());
        }
        put_u64(&mut out, self.units().len() as u64);
        for u in self.units() {
            put_i64(&mut out, u.dx as i64);
            put_i64(&mut out, u.dy as i64);
            put_u64(&mut out, u.radius as u64);
            put_matrix(&mut out, &u.sparse.banded);
            put_matrix(&mut out, &u.sparse.swapped);
            for slice in &u.sparse.slices {
                put_operand(&mut out, slice);
            }
        }
        put_u64(&mut out, self.fingerprint());
        let payload_hash = Fnv1a::new().bytes(&out).finish();
        put_u64(&mut out, payload_hash);
        out
    }

    /// Deserialize a plan previously produced by [`Self::to_bytes`],
    /// validating the version, the trailing fingerprint and every operand's
    /// decompression consistency. Never invokes the compilation pipeline.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SerialError> {
        // Whole-stream integrity first: the last 8 bytes must be the
        // FNV-1a of everything before them. This covers fields no other
        // check sees (unit offsets, dense matrices).
        if bytes.len() < 8 {
            return Err(SerialError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored_hash = u64::from_le_bytes(trailer.try_into().unwrap());
        if Fnv1a::new().bytes(payload).finish() != stored_hash {
            // Distinguish the common "not our file at all" case.
            if !bytes.starts_with(PLAN_MAGIC) {
                return Err(SerialError::BadMagic);
            }
            return Err(SerialError::Corrupt(
                "payload hash mismatch (bit rot or truncation)".into(),
            ));
        }
        let bytes = payload;
        let mut r = Reader::new(bytes);
        if r.take(8)? != PLAN_MAGIC {
            return Err(SerialError::BadMagic);
        }
        let version = r.u32()?;
        if version != PLAN_FORMAT_VERSION {
            return Err(SerialError::UnsupportedVersion(version));
        }
        let parity = parity_from_tag(r.u8()?)?;
        let kind = match r.u8()? {
            1 => ShapeKind::Star,
            2 => ShapeKind::Box,
            t => return Err(SerialError::Corrupt(format!("unknown shape kind {t}"))),
        };
        let dim = match r.u8()? {
            1 => Dim::D1,
            2 => Dim::D2,
            t => return Err(SerialError::Corrupt(format!("unknown dim {t}"))),
        };
        let radius = r.u64()? as usize;
        if radius == 0 || radius > 1 << 20 {
            return Err(SerialError::Corrupt(format!("implausible radius {radius}")));
        }
        let shape = StencilShape::new(kind, dim, radius);
        let ncoeffs = r.u64()? as usize;
        let expect = match dim {
            Dim::D1 => shape.diameter(),
            Dim::D2 => shape.diameter() * shape.diameter(),
        };
        if ncoeffs != expect {
            return Err(SerialError::Corrupt(format!(
                "coefficient count {ncoeffs} does not match shape ({expect})"
            )));
        }
        let mut coeffs = Vec::with_capacity(ncoeffs);
        for _ in 0..ncoeffs {
            coeffs.push(f64::from_bits(r.u64()?));
        }
        let kernel = StencilKernel::from_coeffs(shape, coeffs);
        let nunits = r.u64()? as usize;
        if nunits == 0 {
            return Err(SerialError::Corrupt("plan has no units".into()));
        }
        if nunits > 1 << 16 {
            return Err(SerialError::Corrupt(format!(
                "implausible unit count {nunits}"
            )));
        }
        let mut units = Vec::with_capacity(nunits);
        for i in 0..nunits {
            let dx = r.i64()? as isize;
            let dy = r.i64()? as isize;
            let unit_radius = r.u64()? as usize;
            let banded = read_matrix(&mut r)?;
            let swapped = read_matrix(&mut r)?;
            let slices = [read_operand(&mut r)?, read_operand(&mut r)?];
            let sparse = Sparse24Kernel {
                slices,
                swapped,
                banded,
                radius: unit_radius,
                parity,
            };
            if sparse.decompress() != swapped {
                return Err(SerialError::Corrupt(format!(
                    "unit {i}: operands do not decompress to the stored matrix"
                )));
            }
            units.push(PlanUnit {
                sparse,
                dx,
                dy,
                radius: unit_radius,
            });
        }
        let stored_fprint = r.u64()?;
        if !r.done() {
            return Err(SerialError::Corrupt(
                "trailing bytes after fingerprint".into(),
            ));
        }
        let plan = SpiderPlan::from_parts(kernel, units, parity);
        if plan.fingerprint() != stored_fprint {
            return Err(SerialError::Corrupt(format!(
                "fingerprint mismatch: stored {stored_fprint:#018x}, reassembled {:#018x}",
                plan.fingerprint()
            )));
        }
        Ok(plan)
    }
}

impl Spider3DPlan {
    /// Serialize the compiled 3D plan into the version-1 container format:
    ///
    /// ```text
    /// magic     8 B   b"SPDRPL3D"
    /// version   u32   1
    /// radius    u64
    /// coeffs    u64 count · count × u64 (f64 bit patterns, [dz][dx][dy])
    /// slices    u64 count · count × (i64 dz · u64 len · len nested bytes)
    /// fprint    u64   Spider3DPlan::fingerprint of the serialized plan
    /// payload   u64   FNV-1a over every preceding byte (fprint included)
    /// ```
    ///
    /// Each nested slice payload is a complete [`SpiderPlan::to_bytes`]
    /// stream with its own trailers, so every per-slice integrity guard of
    /// the 2D format applies unchanged inside the container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let kernel = self.kernel();
        let mut out = Vec::with_capacity(64 + self.slices().len() * 6 * 1024);
        out.extend_from_slice(PLAN3D_MAGIC);
        put_u32(&mut out, PLAN3D_FORMAT_VERSION);
        put_u64(&mut out, kernel.radius() as u64);
        put_u64(&mut out, kernel.coeffs().len() as u64);
        for c in kernel.coeffs() {
            put_u64(&mut out, c.to_bits());
        }
        put_u64(&mut out, self.slices().len() as u64);
        for (dz, plan) in self.slices() {
            put_i64(&mut out, *dz as i64);
            let nested = plan.to_bytes();
            put_u64(&mut out, nested.len() as u64);
            out.extend_from_slice(&nested);
        }
        put_u64(&mut out, self.fingerprint());
        let payload_hash = Fnv1a::new().bytes(&out).finish();
        put_u64(&mut out, payload_hash);
        out
    }

    /// Deserialize a 3D plan previously produced by [`Self::to_bytes`],
    /// validating the container hash, each nested slice stream (full 2D
    /// validation: version, operand decompression, trailers), the slice ↔
    /// kernel binding (every stored slice plan must equal the plan of the
    /// stored kernel's matching `dz` slice) and the trailing fingerprint.
    /// Never invokes the compilation pipeline.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SerialError> {
        if bytes.len() < 8 {
            return Err(SerialError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored_hash = u64::from_le_bytes(trailer.try_into().unwrap());
        if Fnv1a::new().bytes(payload).finish() != stored_hash {
            if !bytes.starts_with(PLAN3D_MAGIC) {
                return Err(SerialError::BadMagic);
            }
            return Err(SerialError::Corrupt(
                "payload hash mismatch (bit rot or truncation)".into(),
            ));
        }
        let mut r = Reader::new(payload);
        if r.take(8)? != PLAN3D_MAGIC {
            return Err(SerialError::BadMagic);
        }
        let version = r.u32()?;
        if version != PLAN3D_FORMAT_VERSION {
            return Err(SerialError::UnsupportedVersion(version));
        }
        let radius = r.u64()? as usize;
        if radius == 0 || radius > 1 << 10 {
            return Err(SerialError::Corrupt(format!(
                "implausible 3D radius {radius}"
            )));
        }
        let d = 2 * radius + 1;
        let ncoeffs = r.u64()? as usize;
        if ncoeffs != d * d * d {
            return Err(SerialError::Corrupt(format!(
                "coefficient count {ncoeffs} does not match radius {radius} ({})",
                d * d * d
            )));
        }
        let mut coeffs = Vec::with_capacity(ncoeffs);
        for _ in 0..ncoeffs {
            coeffs.push(f64::from_bits(r.u64()?));
        }
        let kernel = Kernel3D::from_coeffs(radius, coeffs);
        let nslices = r.u64()? as usize;
        if nslices == 0 || nslices > d {
            return Err(SerialError::Corrupt(format!(
                "implausible slice count {nslices} for radius {radius}"
            )));
        }
        // The stored slice *set* must be exactly the kernel's non-zero
        // slice enumeration, in order. Checking each slice individually
        // is not enough: a stitched container could duplicate one dz (a
        // contribution applied twice) or omit one (a contribution lost)
        // while every remaining slice still binds to the kernel — and the
        // hash/fingerprint trailers cover whatever slices are present.
        let expected_dz: Vec<isize> = (-(radius as isize)..=radius as isize)
            .filter(|&dz| kernel.slice(dz).is_some())
            .collect();
        if nslices != expected_dz.len() {
            return Err(SerialError::Corrupt(format!(
                "slice count {nslices} does not match the kernel's {} non-zero slices",
                expected_dz.len()
            )));
        }
        let mut slices = Vec::with_capacity(nslices);
        for (i, &want_dz) in expected_dz.iter().enumerate() {
            let dz = r.i64()? as isize;
            if dz != want_dz {
                return Err(SerialError::Corrupt(format!(
                    "slice {i}: dz {dz}, expected {want_dz} (duplicated or missing slice)"
                )));
            }
            let len = r.u64()? as usize;
            let nested = r.take(len)?;
            let plan = SpiderPlan::from_bytes(nested)?;
            // Slice ↔ kernel binding: the stored slice must be the plan of
            // the stored kernel's own dz slice, so a container stitched
            // from mismatched parts can never serve wrong numerics.
            match kernel.slice(dz) {
                Some(expect) if &expect == plan.kernel() => {}
                _ => {
                    return Err(SerialError::Corrupt(format!(
                        "slice {i} (dz {dz}) does not match the stored kernel"
                    )))
                }
            }
            slices.push((dz, plan));
        }
        let stored_fprint = r.u64()?;
        if !r.done() {
            return Err(SerialError::Corrupt(
                "trailing bytes after fingerprint".into(),
            ));
        }
        let plan = Spider3DPlan::from_parts(kernel, slices);
        if plan.fingerprint() != stored_fprint {
            return Err(SerialError::Corrupt(format!(
                "3D fingerprint mismatch: stored {stored_fprint:#018x}, reassembled {:#018x}",
                plan.fingerprint()
            )));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;
    use spider_stencil::StencilShape;

    fn roundtrip(kernel: &StencilKernel) -> (SpiderPlan, SpiderPlan) {
        let plan = SpiderPlan::compile(kernel).unwrap();
        let bytes = plan.to_bytes();
        let back = SpiderPlan::from_bytes(&bytes).unwrap();
        (plan, back)
    }

    fn assert_plans_equal(a: &SpiderPlan, b: &SpiderPlan) {
        assert_eq!(a.kernel(), b.kernel());
        assert_eq!(a.parity(), b.parity());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.units().len(), b.units().len());
        for (ua, ub) in a.units().iter().zip(b.units()) {
            assert_eq!(ua.sparse, ub.sparse);
            assert_eq!((ua.dx, ua.dy, ua.radius), (ub.dx, ub.dy, ub.radius));
        }
        assert_eq!(a.perm(), b.perm());
        assert_eq!(a.gathers(), b.gathers());
        for mode in [ExecMode::SparseTcOptimized, ExecMode::DenseTc] {
            assert_eq!(a.tap_schedule(mode), b.tap_schedule(mode));
        }
    }

    #[test]
    fn roundtrip_preserves_every_part() {
        for (shape, seed) in [
            (StencilShape::box_2d(1), 1u64),
            (StencilShape::box_2d(3), 2),
            (StencilShape::star_2d(2), 3),
            (StencilShape::d1(2), 4),
            (StencilShape::d1(10), 5), // wide radius: split units, dy != 0
        ] {
            let k = StencilKernel::random(shape, seed);
            let (a, b) = roundtrip(&k);
            assert_plans_equal(&a, &b);
        }
    }

    #[test]
    fn named_kernels_roundtrip() {
        for k in [
            StencilKernel::heat_2d(0.12),
            StencilKernel::jacobi_2d(),
            StencilKernel::gaussian_2d(2),
            StencilKernel::wave_1d(2),
        ] {
            let (a, b) = roundtrip(&k);
            assert_plans_equal(&a, &b);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let plan = SpiderPlan::compile(&StencilKernel::jacobi_2d()).unwrap();
        let mut bytes = plan.to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            SpiderPlan::from_bytes(&bytes).err(),
            Some(SerialError::BadMagic)
        );
    }

    #[test]
    fn future_version_rejected() {
        let plan = SpiderPlan::compile(&StencilKernel::jacobi_2d()).unwrap();
        let mut bytes = plan.to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // A *valid* future-version file carries a correct payload hash;
        // recompute it so the version check (not the hash check) fires.
        let hash_at = bytes.len() - 8;
        let h = Fnv1a::new().bytes(&bytes[..hash_at]).finish();
        bytes[hash_at..].copy_from_slice(&h.to_le_bytes());
        assert_eq!(
            SpiderPlan::from_bytes(&bytes).err(),
            Some(SerialError::UnsupportedVersion(99))
        );
        // A flipped version byte *without* a matching hash is bit rot.
        let mut rotted = plan.to_bytes();
        rotted[8] ^= 0x7;
        assert!(matches!(
            SpiderPlan::from_bytes(&rotted),
            Err(SerialError::Corrupt(_))
        ));
    }

    #[test]
    fn unit_geometry_corruption_rejected() {
        // dx/dy/radius and the dense matrices are invisible to the plan
        // fingerprint — the payload hash must catch them anyway.
        let plan = SpiderPlan::compile(&StencilKernel::gaussian_2d(1)).unwrap();
        let bytes = plan.to_bytes();
        // First unit starts right after the unit count; its dx is the
        // first i64 there. Locate it structurally: header(8+4+1+1+1+8) +
        // coeffs(8 + 9*8) + unit count(8).
        let dx_off = 23 + 8 + 9 * 8 + 8;
        let mut rotted = bytes.clone();
        rotted[dx_off] ^= 0x1;
        assert!(matches!(
            SpiderPlan::from_bytes(&rotted),
            Err(SerialError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let plan = SpiderPlan::compile(&StencilKernel::gaussian_2d(1)).unwrap();
        let bytes = plan.to_bytes();
        // Every strict prefix must fail (Truncated or Corrupt, never panic
        // or false success).
        for cut in [0, 7, 8, 12, 13, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SpiderPlan::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not deserialize"
            );
        }
    }

    #[test]
    fn value_corruption_fails_fingerprint_or_decompress() {
        let plan = SpiderPlan::compile(&StencilKernel::gaussian_2d(2)).unwrap();
        let mut bytes = plan.to_bytes();
        // Flip a bit in the middle of the unit payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        match SpiderPlan::from_bytes(&bytes) {
            Err(SerialError::Corrupt(_)) | Err(SerialError::Truncated) => {}
            other => panic!("corruption must be detected, got {other:?}"),
        }
    }

    #[test]
    fn plan3d_roundtrip_preserves_every_slice() {
        for (r, seed) in [(1usize, 3u64), (2, 4)] {
            let kernel = Kernel3D::random_box(r, seed);
            let plan = Spider3DPlan::compile(&kernel).unwrap();
            let back = Spider3DPlan::from_bytes(&plan.to_bytes()).unwrap();
            assert_eq!(back.kernel(), &kernel);
            assert_eq!(back.fingerprint(), plan.fingerprint());
            assert_eq!(back.radius(), plan.radius());
            assert_eq!(back.slices().len(), plan.slices().len());
            for ((dz_a, a), (dz_b, b)) in plan.slices().iter().zip(back.slices()) {
                assert_eq!(dz_a, dz_b);
                assert_eq!(a.fingerprint(), b.fingerprint());
                assert_eq!(a.units().len(), b.units().len());
            }
        }
        // Star kernels round-trip their sparse slice set (3, not 2r+1).
        let star = Kernel3D::star_7point(-6.0, 1.0);
        let plan = Spider3DPlan::compile(&star).unwrap();
        let back = Spider3DPlan::from_bytes(&plan.to_bytes()).unwrap();
        assert_eq!(back.slices().len(), 3);
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn plan3d_corruption_and_truncation_rejected() {
        let plan = Spider3DPlan::compile(&Kernel3D::random_box(1, 9)).unwrap();
        let bytes = plan.to_bytes();
        // Bad magic.
        let mut rotted = bytes.clone();
        rotted[0] ^= 0xFF;
        assert_eq!(
            Spider3DPlan::from_bytes(&rotted).err(),
            Some(SerialError::BadMagic)
        );
        // Any flipped interior bit: payload hash (or nested trailers) fire.
        for off in [9, 20, bytes.len() / 3, bytes.len() / 2] {
            let mut rotted = bytes.clone();
            rotted[off] ^= 0x4;
            assert!(
                Spider3DPlan::from_bytes(&rotted).is_err(),
                "flip at {off} must be rejected"
            );
        }
        // Every strict prefix fails.
        for cut in [0, 7, 8, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(Spider3DPlan::from_bytes(&bytes[..cut]).is_err());
        }
        // A 2D stream is not a 3D plan and vice versa.
        let plan2d = SpiderPlan::compile(&StencilKernel::jacobi_2d()).unwrap();
        assert!(Spider3DPlan::from_bytes(&plan2d.to_bytes()).is_err());
        assert!(SpiderPlan::from_bytes(&bytes).is_err());
    }

    #[test]
    fn plan3d_duplicated_or_omitted_slices_rejected() {
        // Each slice of these containers binds to the stored kernel and
        // every trailer (payload hash, fingerprint) is self-consistent —
        // only the slice-set check can catch them.
        let plan = Spider3DPlan::compile(&Kernel3D::random_box(1, 3)).unwrap();
        let central = plan
            .slices()
            .iter()
            .find(|(dz, _)| *dz == 0)
            .cloned()
            .unwrap();
        // dz = 0 applied twice: the contribution would double.
        let doubled =
            Spider3DPlan::from_parts(plan.kernel().clone(), vec![central.clone(), central]);
        assert!(matches!(
            Spider3DPlan::from_bytes(&doubled.to_bytes()),
            Err(SerialError::Corrupt(_))
        ));
        // dz = +1 omitted: the contribution would vanish.
        let truncated = Spider3DPlan::from_parts(
            plan.kernel().clone(),
            plan.slices()[..plan.slices().len() - 1].to_vec(),
        );
        assert!(matches!(
            Spider3DPlan::from_bytes(&truncated.to_bytes()),
            Err(SerialError::Corrupt(_))
        ));
        // Slices out of order (swapped dz = -1 and dz = +1) reject too.
        let mut swapped = plan.slices().to_vec();
        swapped.reverse();
        let reordered = Spider3DPlan::from_parts(plan.kernel().clone(), swapped);
        assert!(matches!(
            Spider3DPlan::from_bytes(&reordered.to_bytes()),
            Err(SerialError::Corrupt(_))
        ));
    }

    #[test]
    fn plan3d_stitched_slice_mismatch_rejected() {
        // Rebuild a container whose kernel belongs to a *different* volume
        // than its slices: the slice ↔ kernel binding must reject it even
        // with a freshly recomputed payload hash.
        let a = Spider3DPlan::compile(&Kernel3D::random_box(1, 1)).unwrap();
        let b = Spider3DPlan::compile(&Kernel3D::random_box(1, 2)).unwrap();
        let stitched = Spider3DPlan::from_parts(a.kernel().clone(), b.slices().to_vec());
        let bytes = stitched.to_bytes();
        assert!(matches!(
            Spider3DPlan::from_bytes(&bytes),
            Err(SerialError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let plan = SpiderPlan::compile(&StencilKernel::jacobi_2d()).unwrap();
        let mut bytes = plan.to_bytes();
        bytes.push(0);
        assert!(matches!(
            SpiderPlan::from_bytes(&bytes),
            Err(SerialError::Corrupt(_))
        ));
    }
}
