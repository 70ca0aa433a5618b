//! End-to-end KASLR derandomization: the full §7 attack chain on Zen 2.
//!
//! Stage 1 (§7.1): break kernel-image KASLR with P1 — inject a `jmp*`
//!   prediction at each candidate's `getpid()` nop, watch the I-cache.
//! Stage 2 (§7.2): break physmap KASLR with P2 — confuse the `readv()`
//!   call site with the Listing 3 gadget, watch the D-cache.
//! Stage 3 (Table 5): find the physical address of our own huge page by
//!   making the kernel transiently load `physmap + guess` and
//!   Flush+Reloading our mapping.
//!
//! Run with: `cargo run --release --example kaslr_break`

use phantom::attacks::{
    break_kaslr_image, break_physmap, find_physical_address, KaslrImageConfig, PhysAddrConfig,
    PhysmapConfig,
};
use phantom::UarchProfile;
use phantom_kernel::layout::KaslrLayout;
use phantom_kernel::System;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024);
    let mut sys = System::new(UarchProfile::zen2(), 1 << 30, seed)?;
    println!("booted Zen 2 system, seed {seed} (KASLR randomized)\n");

    // --- Stage 1: kernel image ------------------------------------
    // Scan a 64-slot window (`repro table3 --full` scans all 488); the
    // window is centered blindly on the search space here to keep the
    // example fast.
    let actual_image = sys.layout().image_slot; // used only to size the demo window
    let window = actual_image.saturating_sub(32)..(actual_image + 32).min(488);
    let image = break_kaslr_image(
        &mut sys,
        &KaslrImageConfig {
            slots: window,
            seed,
            ..Default::default()
        },
    )?;
    println!(
        "stage 1: kernel image slot {} (score {}, {:.2} ms simulated) — {}",
        image.guessed_slot,
        image.best_score,
        image.seconds * 1e3,
        if image.correct { "CORRECT" } else { "wrong" }
    );
    let image_base = KaslrLayout::candidate_image_base(image.guessed_slot);

    // --- Stage 2: physmap ------------------------------------------
    let actual_physmap = sys.layout().physmap_slot;
    let window = actual_physmap.saturating_sub(32)..(actual_physmap + 32).min(25_600);
    let physmap = break_physmap(
        &mut sys,
        image_base,
        &PhysmapConfig {
            slots: window,
            seed,
            ..Default::default()
        },
    )?;
    println!(
        "stage 2: physmap slot {} (score {}, {:.2} ms simulated) — {}",
        physmap.guessed_slot,
        physmap.best_score,
        physmap.seconds * 1e3,
        if physmap.correct { "CORRECT" } else { "wrong" }
    );
    let physmap_base = KaslrLayout::candidate_physmap_base(physmap.guessed_slot);

    // --- Stage 3: physical address of our own page ------------------
    let pa = find_physical_address(
        &mut sys,
        image_base,
        physmap_base,
        &PhysAddrConfig {
            max_decoys: 32,
            seed,
        },
    )?;
    println!(
        "stage 3: our huge page is at physical {:#x} after {} guesses ({:.2} ms simulated) — {}",
        pa.guessed_pa.unwrap_or(0),
        pa.guesses_tested,
        pa.seconds * 1e3,
        if pa.correct { "CORRECT" } else { "wrong" }
    );

    println!(
        "\nfull derandomization {}",
        if image.correct && physmap.correct && pa.correct {
            "succeeded"
        } else {
            "FAILED"
        }
    );
    Ok(())
}
