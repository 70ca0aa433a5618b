//! §9.1 — the gadget census: Phantom's single-load (MDS-style) gadgets
//! expand the Spectre attack surface about 4× (Kasper found 183
//! conventional Spectre gadgets in the Linux kernel; with single-load
//! gadgets the count grows to 722).
//!
//! A conventional Spectre-V1 gadget needs **two dependent loads** after
//! an attacker-influenced bounds check (fetch the secret, then encode it
//! in the cache). With Phantom's P3, a *single* out-of-bounds load
//! suffices — the second, secret-dependent load is supplied by steering
//! the transient control flow to a separate disclosure gadget. The
//! classifier below scans decoded instruction sequences for both shapes;
//! the corpus generator plants gadget densities calibrated to Kasper's
//! Linux measurements (the corpus is synthetic — we have no Linux
//! binary — but the classifier logic is general).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phantom_isa::inst::AluOp;
use phantom_isa::{BranchKind, Cond, Inst, Reg};

/// Classification of one function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GadgetClass {
    /// Bounds check + load + dependent second load: exploitable by
    /// conventional Spectre-V1.
    SpectreV1,
    /// Bounds check + single attacker-indexed load (no dependent load):
    /// exploitable only with Phantom's P3 steering.
    MdsSingleLoad,
    /// No exploitable shape found.
    Benign,
}

/// Scan a decoded function for gadget shapes.
///
/// The window after each conditional branch is searched for loads whose
/// base register carries attacker influence (heuristically: any register
/// an earlier ALU op combined with the function's argument registers
/// `R1`/`R2`, or those registers themselves). A second load whose base
/// is the *destination* of the first upgrades the finding to
/// [`GadgetClass::SpectreV1`].
///
/// # Examples
///
/// ```
/// use phantom::gadgets::{classify_function, GadgetClass};
/// use phantom_isa::{Cond, Inst, Reg};
///
/// let body = [
///     Inst::Cmp { a: Reg::R1, b: Reg::R5 },
///     Inst::Jcc { cond: Cond::AboveEq, disp: 12 },
///     Inst::Load { dst: Reg::R3, base: Reg::R1, disp: 0 },
///     Inst::Load { dst: Reg::R4, base: Reg::R3, disp: 0 },
/// ];
/// assert_eq!(classify_function(&body), GadgetClass::SpectreV1);
/// ```
pub fn classify_function(body: &[Inst]) -> GadgetClass {
    // Track registers tainted by the attacker-controlled arguments.
    let mut tainted = [false; 16];
    tainted[Reg::R1.index() as usize] = true;
    tainted[Reg::R2.index() as usize] = true;

    let mut seen_cond = false;
    let mut first_load_dst: Option<Reg> = None;
    let mut best = GadgetClass::Benign;

    for inst in body {
        match inst {
            Inst::Jcc { .. } => seen_cond = true,
            Inst::MovReg { dst, src } => {
                tainted[dst.index() as usize] = tainted[src.index() as usize];
            }
            Inst::Alu { dst, src, .. } => {
                tainted[dst.index() as usize] |= tainted[src.index() as usize];
            }
            Inst::MovImm { dst, .. } => {
                // An immediate (e.g. an array base) combined later with a
                // tainted index stays interesting; the immediate itself
                // clears taint.
                tainted[dst.index() as usize] = false;
            }
            Inst::Load { dst, base, .. } if seen_cond => {
                let base_tainted = tainted[base.index() as usize];
                if let Some(first) = first_load_dst {
                    if *base == first {
                        return GadgetClass::SpectreV1;
                    }
                }
                if base_tainted {
                    first_load_dst = Some(*dst);
                    // The loaded value is secret, not attacker-tainted.
                    tainted[dst.index() as usize] = false;
                    best = GadgetClass::MdsSingleLoad;
                }
            }
            _ if inst.kind() == BranchKind::Ret => break,
            _ => {}
        }
    }
    best
}

/// A synthetic "kernel function" corpus with planted gadget densities.
///
/// The default counts mirror Kasper's Linux measurements: out of 2000
/// functions, 183 carry conventional two-load Spectre gadgets and a
/// further 539 carry single-load MDS gadgets (so Phantom raises the
/// exploitable count from 183 to 722 — about 4×).
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Total functions generated.
    pub functions: usize,
    /// Functions carrying the two-load Spectre shape.
    pub spectre: usize,
    /// Functions carrying only the single-load MDS shape.
    pub mds_only: usize,
    /// RNG seed (shuffling, filler instructions).
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            functions: 2000,
            spectre: 183,
            mds_only: 539,
            seed: 0,
        }
    }
}

fn filler(rng: &mut StdRng, out: &mut Vec<Inst>, n: usize) {
    for _ in 0..n {
        let r = Reg::ALL[usize::from(rng.gen_range(3..10u8))];
        let s = Reg::ALL[usize::from(rng.gen_range(3..10u8))];
        match rng.gen_range(0..4) {
            0 => out.push(Inst::Alu {
                op: AluOp::Add,
                dst: r,
                src: s,
            }),
            1 => out.push(Inst::MovImm {
                dst: r,
                imm: rng.gen(),
            }),
            2 => out.push(Inst::Nop),
            _ => out.push(Inst::Shr {
                dst: r,
                amount: rng.gen_range(0..8),
            }),
        }
    }
}

/// Generate the corpus. Each function ends with `ret`.
pub fn generate_corpus(config: &CorpusConfig) -> Vec<Vec<Inst>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut kinds = Vec::with_capacity(config.functions);
    kinds.extend(std::iter::repeat_n(GadgetClass::SpectreV1, config.spectre));
    kinds.extend(std::iter::repeat_n(
        GadgetClass::MdsSingleLoad,
        config.mds_only,
    ));
    kinds.extend(std::iter::repeat_n(
        GadgetClass::Benign,
        config
            .functions
            .saturating_sub(config.spectre + config.mds_only),
    ));
    // Deterministic shuffle.
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }

    kinds
        .into_iter()
        .map(|kind| {
            let mut body = Vec::new();
            let pre = rng.gen_range(0..4);
            filler(&mut rng, &mut body, pre);
            body.push(Inst::Cmp {
                a: Reg::R1,
                b: Reg::R5,
            });
            body.push(Inst::Jcc {
                cond: Cond::AboveEq,
                disp: 32,
            });
            match kind {
                GadgetClass::SpectreV1 => {
                    body.push(Inst::Load {
                        dst: Reg::R3,
                        base: Reg::R1,
                        disp: 0,
                    });
                    let mid = rng.gen_range(0..3);
                    filler(&mut rng, &mut body, mid);
                    body.push(Inst::Load {
                        dst: Reg::R4,
                        base: Reg::R3,
                        disp: 0,
                    });
                }
                GadgetClass::MdsSingleLoad => {
                    body.push(Inst::Load {
                        dst: Reg::R3,
                        base: Reg::R1,
                        disp: 0,
                    });
                    let tail = rng.gen_range(0..3);
                    filler(&mut rng, &mut body, tail);
                }
                GadgetClass::Benign => {
                    // Loads from untainted bases only.
                    body.push(Inst::MovImm {
                        dst: Reg::R6,
                        imm: 0x6000_0000,
                    });
                    body.push(Inst::Load {
                        dst: Reg::R3,
                        base: Reg::R6,
                        disp: 0,
                    });
                    let tail = rng.gen_range(0..3);
                    filler(&mut rng, &mut body, tail);
                }
            }
            body.push(Inst::Ret);
            body
        })
        .collect()
}

/// The §9.1 comparison result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GadgetCensus {
    /// Functions exploitable by conventional Spectre (two loads).
    pub spectre_gadgets: usize,
    /// Functions exploitable *only* via Phantom's single-load path.
    pub mds_gadgets: usize,
    /// Total exploitable with Phantom = spectre + mds.
    pub total_with_phantom: usize,
}

impl GadgetCensus {
    /// The expansion factor Phantom buys (the paper reports ≈4×:
    /// 183 → 722).
    pub fn expansion_factor(&self) -> f64 {
        self.total_with_phantom as f64 / self.spectre_gadgets.max(1) as f64
    }
}

/// Run the census over a corpus.
pub fn census(corpus: &[Vec<Inst>]) -> GadgetCensus {
    let mut spectre = 0;
    let mut mds = 0;
    for f in corpus {
        match classify_function(f) {
            GadgetClass::SpectreV1 => spectre += 1,
            GadgetClass::MdsSingleLoad => mds += 1,
            GadgetClass::Benign => {}
        }
    }
    GadgetCensus {
        spectre_gadgets: spectre,
        mds_gadgets: mds,
        total_with_phantom: spectre + mds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_identifies_the_three_shapes() {
        let spectre = [
            Inst::Cmp {
                a: Reg::R1,
                b: Reg::R5,
            },
            Inst::Jcc {
                cond: Cond::AboveEq,
                disp: 12,
            },
            Inst::Load {
                dst: Reg::R3,
                base: Reg::R1,
                disp: 0,
            },
            Inst::Load {
                dst: Reg::R4,
                base: Reg::R3,
                disp: 0,
            },
            Inst::Ret,
        ];
        assert_eq!(classify_function(&spectre), GadgetClass::SpectreV1);

        let mds = [
            Inst::Cmp {
                a: Reg::R1,
                b: Reg::R5,
            },
            Inst::Jcc {
                cond: Cond::AboveEq,
                disp: 12,
            },
            Inst::Load {
                dst: Reg::R3,
                base: Reg::R1,
                disp: 0,
            },
            Inst::Ret,
        ];
        assert_eq!(classify_function(&mds), GadgetClass::MdsSingleLoad);

        let benign = [
            Inst::MovImm {
                dst: Reg::R6,
                imm: 0x1000,
            },
            Inst::Load {
                dst: Reg::R3,
                base: Reg::R6,
                disp: 0,
            },
            Inst::Ret,
        ];
        assert_eq!(classify_function(&benign), GadgetClass::Benign);
    }

    #[test]
    fn loads_before_the_bounds_check_do_not_count() {
        let body = [
            Inst::Load {
                dst: Reg::R3,
                base: Reg::R1,
                disp: 0,
            },
            Inst::Cmp {
                a: Reg::R1,
                b: Reg::R5,
            },
            Inst::Ret,
        ];
        assert_eq!(classify_function(&body), GadgetClass::Benign);
    }

    #[test]
    fn taint_propagates_through_alu_and_moves() {
        let body = [
            Inst::Cmp {
                a: Reg::R1,
                b: Reg::R5,
            },
            Inst::Jcc {
                cond: Cond::AboveEq,
                disp: 12,
            },
            Inst::MovImm {
                dst: Reg::R4,
                imm: 0x8000,
            },
            Inst::Alu {
                op: AluOp::Add,
                dst: Reg::R4,
                src: Reg::R1,
            }, // base+index
            Inst::Load {
                dst: Reg::R3,
                base: Reg::R4,
                disp: 0,
            },
            Inst::Ret,
        ];
        assert_eq!(classify_function(&body), GadgetClass::MdsSingleLoad);
    }

    #[test]
    fn census_reproduces_the_kasper_datum() {
        let corpus = generate_corpus(&CorpusConfig::default());
        let c = census(&corpus);
        assert_eq!(c.spectre_gadgets, 183);
        assert_eq!(c.total_with_phantom, 722);
        let f = c.expansion_factor();
        assert!((3.5..4.5).contains(&f), "≈4x expansion, got {f}");
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = generate_corpus(&CorpusConfig::default());
        let b = generate_corpus(&CorpusConfig::default());
        assert_eq!(a, b);
        let c = generate_corpus(&CorpusConfig {
            seed: 1,
            ..Default::default()
        });
        assert_ne!(a, c);
    }
}
