//! The discover fuzzer's leak property, checked over the event bus.
//!
//! ROADMAP item 2 phrases the search property as *"decoder-detectable
//! misprediction reaches stage ≥ ID"*: the frontend must resteer (the
//! decoder caught the BTB lying — the defining PHANTOM signature) *and*
//! the wrong path must have advanced at least into decode (a transient
//! µop-cache fill) before the squash landed.
//!
//! [`LeakProbe`] is an [`EventSink`] that watches one victim run and
//! answers exactly that question, independently of the §5.1
//! cache-timing channels. Reading the property off the event bus
//! instead of the channels gives the fuzzer a second, disagreeing
//! vantage point: `phantom_bench::discover` cross-checks the probe
//! against the [`TransientReport`](phantom_pipeline::TransientReport)
//! ground truth and flags any disagreement as a finding in its own
//! right (a channel bug, exactly the class of thing a fuzzer exists to
//! shake out).

use phantom_pipeline::{EventSink, PipelineEvent, ResteerKind};

use crate::experiment::Stage;

/// Event-bus observer for the leak property. Attach to a
/// [`Machine`](phantom_pipeline::Machine) before the victim run,
/// detach with
/// [`detach_sink_as`](phantom_pipeline::Machine::detach_sink_as)
/// afterwards, then ask [`LeakProbe::verdict`].
#[derive(Debug, Default, Clone)]
pub struct LeakProbe {
    /// Decoder-detected (frontend) resteers observed.
    pub frontend_resteers: u64,
    /// Execute-detected (backend) resteers observed.
    pub backend_resteers: u64,
    /// Wrong-path I-cache line touches (stage IF evidence).
    pub transient_fetches: u64,
    /// Wrong-path µop-cache fills (stage ID evidence).
    pub transient_decodes: u64,
    /// Wrong-path loads dispatched (stage EX evidence).
    pub transient_loads: u64,
    /// Nested phantom steers inside a transient window (§7.4).
    pub phantom_steers: u64,
}

impl LeakProbe {
    /// A fresh probe with all counters zero.
    pub fn new() -> LeakProbe {
        LeakProbe::default()
    }

    /// Deepest stage the wrong path reached, by event-bus evidence.
    pub fn deepest_stage(&self) -> Stage {
        if self.transient_loads > 0 {
            Stage::Ex
        } else if self.transient_decodes > 0 {
            Stage::Id
        } else if self.transient_fetches > 0 {
            Stage::If
        } else {
            Stage::None
        }
    }

    /// The fuzz property: a decoder-detectable misprediction occurred
    /// *and* its wrong path reached stage ≥ ID.
    pub fn verdict(&self) -> bool {
        self.frontend_resteers > 0 && self.deepest_stage() >= Stage::Id
    }
}

impl EventSink for LeakProbe {
    fn on_event(&mut self, event: &PipelineEvent) {
        match event {
            PipelineEvent::Resteer {
                kind: ResteerKind::Frontend,
                ..
            } => self.frontend_resteers += 1,
            PipelineEvent::Resteer {
                kind: ResteerKind::Backend,
                ..
            } => self.backend_resteers += 1,
            PipelineEvent::FetchLine {
                transient: true, ..
            } => self.transient_fetches += 1,
            PipelineEvent::UopCacheFill {
                transient: true, ..
            } => self.transient_decodes += 1,
            PipelineEvent::TransientLoad { .. } => self.transient_loads += 1,
            PipelineEvent::PhantomSteer { .. } => self.phantom_steers += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_cache::Level;
    use phantom_mem::VirtAddr;

    fn va(x: u64) -> VirtAddr {
        VirtAddr::new(x)
    }

    #[test]
    fn verdict_requires_frontend_resteer_and_decode() {
        let mut p = LeakProbe::new();
        assert!(!p.verdict());
        assert_eq!(p.deepest_stage(), Stage::None);

        // Fetch alone is stage IF: not enough.
        p.on_event(&PipelineEvent::FetchLine {
            va: va(0x1000),
            level: Level::Memory,
            transient: true,
        });
        p.on_event(&PipelineEvent::Resteer {
            pc: va(0x1000),
            kind: ResteerKind::Frontend,
            target: Some(va(0x2000)),
        });
        assert_eq!(p.deepest_stage(), Stage::If);
        assert!(!p.verdict());

        // A transient decode crosses the ID line.
        p.on_event(&PipelineEvent::UopCacheFill {
            va: va(0x2000),
            transient: true,
        });
        assert_eq!(p.deepest_stage(), Stage::Id);
        assert!(p.verdict());

        // A transient load promotes to EX; the verdict stays true.
        p.on_event(&PipelineEvent::TransientLoad {
            va: va(0x60_0000),
            level: Level::Memory,
        });
        assert_eq!(p.deepest_stage(), Stage::Ex);
        assert!(p.verdict());
    }

    #[test]
    fn backend_only_resteer_is_spectre_not_phantom() {
        // Stage-EX evidence with only a *backend* resteer is classic
        // Spectre: the decoder never objected, so the property fails.
        let mut p = LeakProbe::new();
        p.on_event(&PipelineEvent::Resteer {
            pc: va(0x1000),
            kind: ResteerKind::Backend,
            target: None,
        });
        p.on_event(&PipelineEvent::UopCacheFill {
            va: va(0x2000),
            transient: true,
        });
        p.on_event(&PipelineEvent::TransientLoad {
            va: va(0x60_0000),
            level: Level::L1,
        });
        assert_eq!(p.deepest_stage(), Stage::Ex);
        assert!(!p.verdict());
        assert_eq!(p.backend_resteers, 1);
    }

    #[test]
    fn architectural_traffic_is_ignored() {
        let mut p = LeakProbe::new();
        p.on_event(&PipelineEvent::FetchLine {
            va: va(0x1000),
            level: Level::L1,
            transient: false,
        });
        p.on_event(&PipelineEvent::UopCacheFill {
            va: va(0x1000),
            transient: false,
        });
        p.on_event(&PipelineEvent::DataAccess {
            va: va(0x60_0000),
            level: Level::L1,
        });
        assert_eq!(p.deepest_stage(), Stage::None);
        assert!(!p.verdict());
    }

    #[test]
    fn probe_observes_a_real_phantom_run() {
        // End to end on the machine: Zen 3, nop victim trained as jmp*,
        // must satisfy the property through the event bus alone.
        use phantom_isa::encode::encode_all;
        use phantom_isa::{Inst, Reg};
        use phantom_mem::PageFlags;
        use phantom_pipeline::{Machine, UarchProfile};

        let mut m = Machine::new(UarchProfile::zen3(), 1 << 26);
        let text = PageFlags::USER_TEXT | PageFlags::WRITE;
        let x = va(0x40_0ac0);
        let c = va(0x48_0b40);
        m.map_range(x.page_base(), 0x1000, text).unwrap();
        m.map_range(c.page_base(), 0x1000, text).unwrap();
        m.map_range(va(0x60_0000), 64, PageFlags::USER_DATA)
            .unwrap();
        m.set_reg(Reg::R8, 0x60_0000);
        let load = Inst::Load {
            dst: Reg::R9,
            base: Reg::R8,
            disp: 0,
        };
        m.poke(c, &encode_all(&[load, Inst::Halt]).unwrap());

        // Train jmp* -> C, then swap in the nop victim.
        m.poke(
            x,
            &encode_all(&[Inst::JmpInd { src: Reg::R11 }, Inst::Halt]).unwrap(),
        );
        m.set_reg(Reg::R11, c.raw());
        m.set_pc(x);
        m.run(8).unwrap();
        m.poke(x, &encode_all(&[Inst::Nop, Inst::Nop, Inst::Halt]).unwrap());

        let id = m.attach_sink(LeakProbe::new());
        m.set_pc(x);
        m.run(8).unwrap();
        let probe = m.detach_sink_as::<LeakProbe>(id).expect("attached");
        assert!(probe.frontend_resteers > 0, "decoder caught the phantom");
        assert!(probe.verdict(), "Zen 3 phantom reaches ID");
        assert_eq!(probe.deepest_stage(), Stage::Id, "but not EX on Zen 3");
    }
}
