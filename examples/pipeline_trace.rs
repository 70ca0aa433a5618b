//! Watch a PHANTOM misprediction happen, instruction by instruction.
//!
//! We run the paper's Figure 4 experiment under a pipeline tracer on
//! Zen 2 and Zen 4, printing each architectural step with the frontend's
//! (mis)beliefs annotated. The same nop produces an "EX, 1 load" wrong
//! path on Zen 2 and an "ID, 0 loads" one on Zen 4.
//!
//! Alongside the tracer, a custom [`EventSink`] rides the typed event
//! bus and tallies the raw wrong-path events — the same attach/detach
//! API any new observation channel would use (see `DESIGN.md`).
//!
//! Run with: `cargo run --release --example pipeline_trace`

use phantom_isa::asm::Assembler;
use phantom_isa::encode::encode_all;
use phantom_isa::{Inst, Reg};
use phantom_mem::{PageFlags, VirtAddr};
use phantom_pipeline::{EventSink, Machine, PipelineEvent, Tracer, UarchProfile};

/// A minimal bus consumer: tallies the wrong-path events of one run.
#[derive(Default)]
struct WrongPathTally {
    fetches: usize,
    uops: usize,
    loads: usize,
    resteers: usize,
}

impl EventSink for WrongPathTally {
    fn on_event(&mut self, event: &PipelineEvent) {
        match event {
            PipelineEvent::FetchLine {
                transient: true, ..
            } => self.fetches += 1,
            PipelineEvent::WrongPathUop { .. } => self.uops += 1,
            PipelineEvent::TransientLoad { .. } => self.loads += 1,
            PipelineEvent::Resteer { .. } => self.resteers += 1,
            _ => {}
        }
    }
}

fn trace_one(profile: UarchProfile) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== {} ===", profile.name);
    let mut m = Machine::new(profile, 1 << 24);
    let text = PageFlags::USER_TEXT | PageFlags::WRITE;
    let x = VirtAddr::new(0x40_0ac0); // the victim site A/B
    let c = VirtAddr::new(0x48_0b40); // the phantom target C
    m.map_range(x.page_base(), 0x1000, text)?;
    m.map_range(VirtAddr::new(0x60_0000), 64, PageFlags::USER_DATA)?;
    m.set_reg(Reg::R8, 0x60_0000);

    // C: the signal payload (one load, then halt).
    let mut g = Assembler::new(c.raw());
    g.push(Inst::Load {
        dst: Reg::R9,
        base: Reg::R8,
        disp: 0,
    });
    g.push(Inst::Halt);
    m.load_blob(&g.finish()?, text)?;

    // Training run: jmp* at X -> C.
    let mut t = Assembler::new(x.raw());
    t.push(Inst::JmpInd { src: Reg::R11 });
    t.push(Inst::Halt);
    m.load_blob(&t.finish()?, text)?;
    m.set_reg(Reg::R11, c.raw());
    m.set_pc(x);
    println!("-- training run (jmp* {x} -> {c}):");
    let mut tracer = Tracer::new(64);
    tracer.run(&mut m, 8)?;
    print!("{}", tracer.render());

    // Victim run: the jmp* is now a nop sled, but the BTB remembers.
    // Attach a tally sink to the event bus for the duration of the run.
    m.poke(x, &encode_all(&[Inst::Nop, Inst::Nop, Inst::Halt])?);
    m.set_pc(x);
    println!("-- victim run (same bytes are now nops):");
    let tally_id = m.attach_sink(WrongPathTally::default());
    tracer.clear();
    tracer.run(&mut m, 8)?;
    print!("{}", tracer.render());
    let tally = m
        .detach_sink_as::<WrongPathTally>(tally_id)
        .expect("tally still attached");
    println!(
        "-- bus tally: {} resteer(s), {} wrong-path fetch(es), {} wrong-path uop(s), {} transient load(s)",
        tally.resteers, tally.fetches, tally.uops, tally.loads
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    trace_one(UarchProfile::zen2())?;
    trace_one(UarchProfile::zen4())?;
    Ok(())
}
