//! The full simulated system: kernel + user space on one machine.

use phantom_bpu::MsrState;
use phantom_isa::asm::{AsmError, Assembler};
use phantom_isa::encode::{encode, MAX_INST_LEN};
use phantom_isa::{BranchKind, Inst, Reg};
use phantom_mem::{PageFlags, PrivilegeLevel, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};
use phantom_pipeline::{Checkpoint, Machine, UarchProfile};

use crate::image::KernelImage;
use crate::layout::KaslrLayout;
use crate::module::{secret_for, KernelModule, MODULE_BASE};
use crate::sysno;

/// Address of the user-mode syscall stub (`syscall; hlt`).
pub const USER_STUB: u64 = 0x10_0000;
/// Address of the user-mode fault handler (`hlt`).
pub const USER_FAULT_HANDLER: u64 = 0x11_0000;
/// Base of the user stack region.
pub const USER_STACK_BASE: u64 = 0x7f00_0000;
/// Size of the user stack region.
pub const USER_STACK_SIZE: u64 = 0x4000;

/// Errors from system construction or syscall invocation.
#[derive(Debug)]
pub enum SystemError {
    /// Assembly of a kernel component failed (layout bug).
    Asm(AsmError),
    /// The underlying machine errored.
    Machine(phantom_pipeline::machine::MachineError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Asm(e) => write!(f, "kernel assembly failed: {e}"),
            SystemError::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<AsmError> for SystemError {
    fn from(e: AsmError) -> Self {
        SystemError::Asm(e)
    }
}

impl From<phantom_pipeline::machine::MachineError> for SystemError {
    fn from(e: phantom_pipeline::machine::MachineError) -> Self {
        SystemError::Machine(e)
    }
}

/// A booted system: randomized kernel, loaded module, user runtime.
///
/// The struct exposes the ground-truth layout for *verification*;
/// attack code must derive addresses through the side channels, not read
/// them here (the attack implementations in the `phantom` crate only
/// consult ground truth to score their own guesses).
///
/// # Examples
///
/// ```
/// use phantom_kernel::{sysno, System};
/// use phantom_pipeline::UarchProfile;
///
/// let mut sys = System::new(UarchProfile::zen2(), 1 << 30, 1)?;
/// sys.getpid()?;
/// assert_eq!(sys.machine().reg(phantom_isa::Reg::R1), phantom_kernel::image::FAKE_PID);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// Cloning a system clones the whole booted world — machine state and
/// ground truth — sharing physical frames copy-on-write with the
/// original (and, like any machine clone, carrying no event sinks).
/// Checkpoint-forking trial runners clone one booted system per worker
/// instead of re-running the boot sequence.
#[derive(Debug, Clone)]
pub struct System {
    machine: Machine,
    layout: KaslrLayout,
    image: KernelImage,
    module: KernelModule,
    secret: Vec<u8>,
    boot_seed: u64,
    kpti: bool,
}

impl System {
    /// Boot a system with KASLR randomized from `seed` and all supported
    /// hardware mitigations enabled (the paper's threat model: a default
    /// hardened configuration).
    ///
    /// This is a full boot every call — the reference that
    /// [`System::new_cached`] (the production path) is checked against
    /// by `boot_matches_a_fresh_boot` and the root `determinism` tests.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if kernel assembly or loading fails.
    pub fn new(profile: UarchProfile, phys_bytes: u64, seed: u64) -> Result<System, SystemError> {
        Self::with_layout(profile, phys_bytes, seed, KaslrLayout::randomize(seed))
    }

    /// Boot with an explicit layout (tests needing fixed addresses).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if kernel assembly or loading fails.
    pub fn with_layout(
        profile: UarchProfile,
        phys_bytes: u64,
        seed: u64,
        layout: KaslrLayout,
    ) -> Result<System, SystemError> {
        let mut machine = Machine::new(profile, phys_bytes);

        // Default-hardened MSRs (clamped to hardware support).
        let is_intel = machine.profile().vendor == phantom_pipeline::Vendor::Intel;
        machine.write_msr(MsrState::hardened(
            machine.profile().supports_suppress_bp_on_non_br,
            machine.profile().supports_auto_ibrs,
            is_intel,
        ));

        // Kernel module first (the image's trampoline needs its entry).
        let (module_blob, module) = KernelModule::build(VirtAddr::new(MODULE_BASE))?;
        let (image_blob, image) = KernelImage::build(layout.image_base(), module.entry)?;

        machine
            .load_blob(&image_blob, PageFlags::KERNEL_TEXT)
            .map_err(SystemError::Machine)?;
        machine
            .load_blob(&module_blob, PageFlags::KERNEL_TEXT | PageFlags::WRITE)
            .map_err(SystemError::Machine)?;
        machine.set_syscall_entry(Some(image.entry));

        // Plant the secret the §7.4 attack must leak.
        let secret = secret_for(seed);
        machine.poke(module.secret, &secret);

        // Physmap: a non-executable direct map of physical memory at the
        // randomized base, in 2 MiB huge pages.
        let physmap = layout.physmap_base();
        let mut off = 0;
        while off < machine.phys().capacity() {
            machine.page_table_mut().map_2m(
                physmap + off,
                phantom_mem::PhysAddr::new(off),
                PageFlags::KERNEL_DATA,
            );
            off += HUGE_PAGE_SIZE;
        }

        // User runtime: syscall stub, fault handler, stack.
        let mut stub = Assembler::new(USER_STUB);
        stub.push(Inst::Syscall);
        stub.push(Inst::Halt);
        machine
            .load_blob(&stub.finish()?, PageFlags::USER_TEXT)
            .map_err(SystemError::Machine)?;
        let mut handler = Assembler::new(USER_FAULT_HANDLER);
        handler.push(Inst::Halt);
        machine
            .load_blob(&handler.finish()?, PageFlags::USER_TEXT)
            .map_err(SystemError::Machine)?;
        machine
            .map_range(
                VirtAddr::new(USER_STACK_BASE),
                USER_STACK_SIZE,
                PageFlags::USER_DATA,
            )
            .map_err(SystemError::Machine)?;
        machine.set_fault_handler(Some(VirtAddr::new(USER_FAULT_HANDLER)));

        Ok(System {
            machine,
            layout,
            image,
            module,
            secret,
            boot_seed: seed,
            kpti: true,
        })
    }

    /// Boot through the process-global boot-image cache: same contract
    /// and result as [`System::new`], but machine construction, kernel
    /// assembly and blob loading are paid once per `(profile,
    /// phys_bytes)` — later boots clone the cached template (frames
    /// shared copy-on-write) and rebase its page table to the seed's
    /// KASLR layout (see [`crate::boot_cache`]).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if kernel assembly or loading fails.
    pub fn new_cached(
        profile: UarchProfile,
        phys_bytes: u64,
        seed: u64,
    ) -> Result<System, SystemError> {
        crate::boot_cache::global().boot(profile, phys_bytes, seed)
    }

    /// Assemble a system from parts the boot cache prepared.
    pub(crate) fn assemble(
        machine: Machine,
        layout: KaslrLayout,
        image: KernelImage,
        module: KernelModule,
        secret: Vec<u8>,
        boot_seed: u64,
    ) -> System {
        System {
            machine,
            layout,
            image,
            module,
            secret,
            boot_seed,
            kpti: true,
        }
    }

    /// Whether KPTI-style TLB separation is active (default: on, like
    /// the paper's hardened baseline). Phantom is KPTI-oblivious — the
    /// BTB is trained by the *branch*, not by touching kernel mappings —
    /// but the flag models the context-switch TLB cost.
    #[cfg(test)]
    pub fn kpti(&self) -> bool {
        self.kpti
    }

    /// Toggle KPTI (affects syscall-boundary TLB flushes only).
    #[cfg(test)]
    pub fn set_kpti(&mut self, on: bool) {
        self.kpti = on;
    }

    /// Reboot: fresh KASLR, cold caches and predictors — the system
    /// [`System::new_cached`] boots for `seed` on the same profile and
    /// memory size. Nothing is charged for the reboot itself: the new
    /// system's cycle counter starts from zero like any boot's.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the new kernel fails to load.
    #[cfg(test)]
    pub fn reboot(&mut self, seed: u64) -> Result<(), SystemError> {
        let profile = self.machine.profile().clone();
        let phys = self.machine.phys().capacity();
        *self = System::new_cached(profile, phys, seed)?;
        Ok(())
    }

    // ----- accessors ---------------------------------------------------

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The underlying machine, mutably.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Ground-truth KASLR layout (verification only).
    pub fn layout(&self) -> KaslrLayout {
        self.layout
    }

    /// Ground-truth kernel image addresses (verification only; attacks
    /// must find these via side channels).
    pub fn image(&self) -> &KernelImage {
        &self.image
    }

    /// The loaded module's addresses (module space is unrandomized in
    /// this model, so these are attacker-known).
    pub fn module(&self) -> &KernelModule {
        &self.module
    }

    /// The planted secret (verification only).
    pub fn secret(&self) -> &[u8] {
        &self.secret
    }

    /// The boot seed.
    #[cfg(test)]
    pub fn boot_seed(&self) -> u64 {
        self.boot_seed
    }

    /// Seal this system as a fork point. The machine moves into the
    /// checkpoint (see [`Machine::into_checkpoint`]), so sealing copies
    /// nothing; [`SystemCheckpoint::fork`] then pays one machine clone
    /// per private copy.
    pub fn into_checkpoint(self) -> SystemCheckpoint {
        SystemCheckpoint {
            machine: self.machine.into_checkpoint(),
            layout: self.layout,
            image: self.image,
            module: self.module,
            secret: self.secret,
            boot_seed: self.boot_seed,
            kpti: self.kpti,
        }
    }

    // ----- user-space operations ----------------------------------------

    /// Invoke a syscall from the user stub with up to three arguments
    /// and run until the stub halts. The wrong paths it takes leave
    /// their traces in the caches and predictors, which is what the
    /// probes read; callers that want the reports themselves step the
    /// machine with [`Machine::run_collecting`].
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Machine`] on simulator errors (not on
    /// architectural page faults, which the user fault handler absorbs).
    pub fn syscall(&mut self, nr: u64, args: &[u64]) -> Result<(), SystemError> {
        self.machine.set_level(PrivilegeLevel::User);
        self.machine.set_reg(Reg::R0, nr);
        for (i, a) in args.iter().enumerate().take(3) {
            let reg = [Reg::R1, Reg::R2, Reg::R3][i];
            self.machine.set_reg(reg, *a);
        }
        self.machine
            .set_reg(Reg::SP, USER_STACK_BASE + USER_STACK_SIZE - 64);
        self.machine.set_pc(VirtAddr::new(USER_STUB));
        if self.kpti {
            // KPTI: the user<->kernel transition switches page tables,
            // losing user-ASID TLB entries (timing-only in this model).
            self.machine.tlb_mut().invalidate_asid(0);
            self.machine.add_cycles(300);
        }
        self.machine.run(10_000)?;
        Ok(())
    }

    /// `getpid()` — drives the Listing 1 path.
    ///
    /// # Errors
    ///
    /// See [`System::syscall`].
    pub fn getpid(&mut self) -> Result<(), SystemError> {
        self.syscall(sysno::GETPID, &[])
    }

    /// `readv(fd, iov)` — drives the Listing 2 path with `iov` (the
    /// second argument) flowing into `R12`.
    ///
    /// # Errors
    ///
    /// See [`System::syscall`].
    pub fn readv(&mut self, fd: u64, iov: u64) -> Result<(), SystemError> {
        self.syscall(sysno::READV, &[fd, iov])
    }

    /// Map a user page at `va` if not already mapped (attacker memory).
    ///
    /// Pages that already have *any* mapping — including supervisor
    /// mappings, which the fault-and-catch training in
    /// [`System::train_user_branch`] deliberately targets — are left
    /// untouched, unlike the strict
    /// [`Machine::map_range`](phantom_pipeline::Machine::map_range),
    /// which rejects flag mismatches.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Machine`] if physical memory runs out.
    pub fn map_user(
        &mut self,
        va: VirtAddr,
        len: u64,
        flags: PageFlags,
    ) -> Result<(), SystemError> {
        let start = va.page_base();
        let end = (va + len + PAGE_SIZE - 1).page_base();
        let mut page = start;
        while page < end {
            if self.machine.page_table().flags_of(page).is_none() {
                self.machine.map_range(page, PAGE_SIZE, flags)?;
            }
            page = page + PAGE_SIZE;
        }
        Ok(())
    }

    /// Poke `inst` and a `hlt` after it at `va`, encoded on the stack.
    fn poke_then_halt(&mut self, va: VirtAddr, inst: &Inst) -> Result<(), SystemError> {
        let mut bytes = [0; 2 * MAX_INST_LEN];
        let mut len = 0;
        for inst in [inst, &Inst::Halt] {
            let encoded = encode(inst).map_err(AsmError::from)?;
            let encoded = encoded.as_bytes();
            bytes[len..len + encoded.len()].copy_from_slice(encoded);
            len += encoded.len();
        }
        self.machine.poke(va, &bytes[..len]);
        Ok(())
    }

    /// Plant a user-mode branch of `kind` exactly at `source`, pointed
    /// at `target`, followed by a `hlt`: map the two pages the stub may
    /// touch (if unmapped), then write its bytes. Nothing executes.
    ///
    /// The indirect kinds' bytes (`jmp *r11` / `call *r11`) do not
    /// depend on `target`, so a receiver that probes with varying
    /// targets can plant the stub once, before it checkpoints: every
    /// later [`System::train_user_branch`] at the same source then maps
    /// nothing and pokes identical bytes, which writes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Machine`] if physical memory runs out, or
    /// [`SystemError::Asm`] if a direct branch cannot reach `target`.
    pub fn plant_user_branch(
        &mut self,
        source: VirtAddr,
        kind: BranchKind,
        target: VirtAddr,
    ) -> Result<(), SystemError> {
        self.map_user(
            source.page_base(),
            4096 + 32,
            PageFlags::USER_TEXT | PageFlags::WRITE,
        )?;
        let inst = match kind {
            BranchKind::Indirect => Inst::JmpInd { src: Reg::R11 },
            BranchKind::CallInd => Inst::CallInd { src: Reg::R11 },
            BranchKind::Direct => Inst::Jmp { disp: 0 },
            BranchKind::Call => Inst::Call { disp: 0 },
            BranchKind::Cond => Inst::Jcc {
                cond: phantom_isa::Cond::Eq,
                disp: 0,
            },
            BranchKind::Ret => Inst::Ret,
            BranchKind::NotBranch => Inst::Nop,
        };
        let inst = inst.with_target(source.raw(), target.raw())?;
        self.poke_then_halt(source, &inst)
    }

    /// Train the BTB from user mode: [plant](System::plant_user_branch)
    /// a branch of `kind` exactly at `source`, pointed at `target`, and
    /// execute it once. Branches to inaccessible targets page-fault —
    /// and are caught — but still deposit the BTB entry (the §6.2
    /// fault-and-catch technique).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Machine`] on simulator errors, or
    /// [`SystemError::Asm`] if the branch or its `cmp` fails to encode.
    pub fn train_user_branch(
        &mut self,
        source: VirtAddr,
        kind: BranchKind,
        target: VirtAddr,
    ) -> Result<(), SystemError> {
        self.plant_user_branch(source, kind, target)?;
        self.machine.set_level(PrivilegeLevel::User);
        self.machine.set_reg(Reg::R11, target.raw());
        if kind == BranchKind::Cond {
            // Make the conditional actually taken (ZF set via cmp of
            // equal registers) and train the direction predictor.
            self.machine.set_reg(Reg::R9, 1);
            self.machine.set_reg(Reg::R10, 1);
            // Execute the cmp from a scratch location just before source
            // is awkward; set flags directly by running cmp at the stub
            // page. Simplest: poke cmp+branch sequence? The branch must
            // sit exactly at `source`, so run the cmp from a scratch page.
            let scratch = VirtAddr::new(USER_STUB + 0x100);
            self.map_user(scratch, 16, PageFlags::USER_TEXT | PageFlags::WRITE)?;
            self.poke_then_halt(
                scratch,
                &Inst::Cmp {
                    a: Reg::R9,
                    b: Reg::R10,
                },
            )?;
            self.machine.set_pc(scratch);
            self.machine.run(4)?;
        }
        if kind == BranchKind::Ret {
            // Plant the "architectural" return target on the stack so the
            // trained entry records it.
            let sp = USER_STACK_BASE + USER_STACK_SIZE - 256;
            self.machine.set_reg(Reg::SP, sp);
            self.machine.poke_u64(VirtAddr::new(sp), target.raw());
        } else {
            self.machine
                .set_reg(Reg::SP, USER_STACK_BASE + USER_STACK_SIZE - 64);
        }
        self.machine.set_pc(source);
        self.machine.run(4)?;
        Ok(())
    }
}

/// A booted system sealed by [`System::into_checkpoint`]: the machine
/// [`Checkpoint`] plus the ground truth a fork needs.
///
/// A campaign job stamps its system out of a boot template, seals that
/// instance here and forks one system per worker, so the job pays for
/// two machine-sized copies (the instance and each fork) and the
/// restore point is the instance itself.
#[derive(Debug, Clone)]
pub struct SystemCheckpoint {
    machine: Checkpoint,
    layout: KaslrLayout,
    image: KernelImage,
    module: KernelModule,
    secret: Vec<u8>,
    boot_seed: u64,
    kpti: bool,
}

impl SystemCheckpoint {
    /// A private system whose state equals the sealed one: one machine
    /// clone ([`Checkpoint::fork`]) plus the ground-truth fields.
    pub fn fork(&self) -> System {
        System {
            machine: self.machine.fork(),
            layout: self.layout,
            image: self.image,
            module: self.module,
            secret: self.secret.clone(),
            boot_seed: self.boot_seed,
            kpti: self.kpti,
        }
    }

    /// The machine checkpoint, for rewinding a fork between trials.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FAKE_PID;
    use crate::module::SECRET_LEN;

    #[test]
    fn a_sealed_system_forks_and_rewinds_like_its_clone() {
        let mut sys = System::new_cached(UarchProfile::zen2(), 1 << 30, 7).unwrap();
        sys.getpid().unwrap();
        let mut clone = sys.clone();
        let sealed = sys.into_checkpoint();
        let mut fork = sealed.fork();
        assert_eq!(fork.layout(), clone.layout());
        assert_eq!(fork.image(), clone.image());
        assert_eq!(fork.secret(), clone.secret());
        assert_eq!(fork.boot_seed(), 7);
        assert_eq!(fork.kpti(), clone.kpti());
        let before = fork.machine().cycles();
        for sys in [&mut fork, &mut clone] {
            sys.readv(3, 0xdead_beef).unwrap();
        }
        assert_eq!(fork.machine().cycles(), clone.machine().cycles());
        assert_eq!(fork.machine().reg(Reg::R12), clone.machine().reg(Reg::R12));
        sealed.checkpoint().rewind(fork.machine_mut());
        assert_eq!(fork.machine().cycles(), before);
    }

    fn boot(seed: u64) -> System {
        System::new(UarchProfile::zen2(), 1 << 30, seed).expect("boot")
    }

    #[test]
    fn getpid_returns_the_fake_pid() {
        let mut sys = boot(1);
        sys.getpid().unwrap();
        assert_eq!(sys.machine().reg(Reg::R1), FAKE_PID);
        assert_eq!(sys.machine().level(), PrivilegeLevel::User);
    }

    #[test]
    fn readv_flows_arg2_into_r12() {
        let mut sys = boot(2);
        sys.readv(3, 0xdead_beef).unwrap();
        // After the syscall, R12 was loaded from R2 inside the kernel.
        assert_eq!(sys.machine().reg(Reg::R12), 0xdead_beef);
    }

    #[test]
    fn kaslr_varies_across_boots() {
        let slots: std::collections::HashSet<u64> = (0..20)
            .map(|s| {
                System::new(UarchProfile::zen3(), 1 << 30, s)
                    .unwrap()
                    .layout()
                    .image_slot
            })
            .collect();
        assert!(slots.len() > 10);
    }

    #[test]
    fn physmap_mirrors_physical_memory() {
        let mut sys = boot(3);
        let physmap = sys.layout().physmap_base();
        // Write through physmap (supervisor data access) and read the
        // physical byte directly.
        sys.machine_mut().poke_u64(physmap + 0x1234, 0x7777);
        assert_eq!(
            sys.machine()
                .phys()
                .read_u64(phantom_mem::PhysAddr::new(0x1234)),
            0x7777
        );
    }

    #[test]
    fn physmap_is_not_executable() {
        let sys = boot(4);
        let physmap = sys.layout().physmap_base();
        let err = sys
            .machine()
            .page_table()
            .translate(
                physmap,
                phantom_mem::AccessKind::Execute,
                PrivilegeLevel::Supervisor,
            )
            .unwrap_err();
        assert_eq!(err.reason, phantom_mem::FaultReason::NotExecutable);
    }

    #[test]
    fn user_cannot_read_kernel_image() {
        let sys = boot(5);
        let err = sys
            .machine()
            .page_table()
            .translate(
                sys.image().listing1_nop,
                phantom_mem::AccessKind::Read,
                PrivilegeLevel::User,
            )
            .unwrap_err();
        assert_eq!(err.reason, phantom_mem::FaultReason::Privilege);
    }

    #[test]
    fn module_read_data_in_bounds_works() {
        let mut sys = boot(6);
        // Byte-indexed like the paper's `array[user_index]`: index 8 hits
        // the second u64 entry (0x11) at its low byte.
        sys.syscall(sysno::MODULE_READ_DATA, &[8, 0]).unwrap();
        assert_eq!(sys.machine().reg(Reg::R3), 0x11);
    }

    #[test]
    fn module_read_data_out_of_bounds_is_rejected_architecturally() {
        let mut sys = boot(7);
        sys.machine_mut().set_reg(Reg::R3, 0);
        sys.syscall(sysno::MODULE_READ_DATA, &[999, 0]).unwrap();
        // The bounds check architecturally rejects: R3 not loaded from
        // array[999].
        assert_eq!(sys.machine().reg(Reg::R3), 0);
    }

    #[test]
    fn train_user_branch_deposits_cross_privilege_entry() {
        let mut sys = System::new(UarchProfile::zen3(), 1 << 30, 8).unwrap();
        let k = sys.image().listing1_nop;
        // A user address aliasing K under the Zen 3 functions.
        let u = VirtAddr::new(k.raw() ^ 0xffff_bff8_0000_0000);
        sys.train_user_branch(u, BranchKind::Indirect, VirtAddr::new(0x30_0000))
            .unwrap();
        // The BTB now serves a prediction at the kernel address.
        let hit = sys.machine().bpu().btb().lookup(k).expect("aliased entry");
        assert_eq!(hit.kind, BranchKind::Indirect);
        assert_eq!(hit.target, Some(VirtAddr::new(0x30_0000)));
    }

    #[test]
    fn a_planted_indirect_stub_leaves_training_nothing_to_map() {
        let mut sys = System::new(UarchProfile::zen3(), 1 << 30, 8).unwrap();
        let k = sys.image().listing1_nop;
        let u = VirtAddr::new(k.raw() ^ 0xffff_bff8_0000_0000);
        sys.plant_user_branch(u, BranchKind::Indirect, VirtAddr::new(0x30_0000))
            .unwrap();
        let version = sys.machine().page_table().version();
        let stub = sys.machine().try_peek(u, 4).unwrap();
        // Training toward another target maps nothing and finds the
        // stub's bytes already in place, yet trains the BTB as usual.
        sys.train_user_branch(u, BranchKind::Indirect, VirtAddr::new(0x31_0000))
            .unwrap();
        assert_eq!(sys.machine().page_table().version(), version);
        assert_eq!(sys.machine().try_peek(u, 4).unwrap(), stub);
        let hit = sys.machine().bpu().btb().lookup(k).expect("aliased entry");
        assert_eq!(hit.target, Some(VirtAddr::new(0x31_0000)));
    }

    #[test]
    fn secret_is_planted_and_seed_dependent() {
        let a = boot(100);
        let b = boot(101);
        assert_eq!(a.secret().len(), SECRET_LEN);
        assert_ne!(a.secret(), b.secret());
        // And actually resident in kernel memory.
        let in_mem = a.machine().try_peek(a.module().secret, 16).unwrap();
        assert_eq!(&in_mem, &a.secret()[..16]);
    }

    #[test]
    fn reboot_rerandomizes() {
        let mut sys = boot(9);
        let before = sys.layout();
        sys.reboot(10).unwrap();
        assert_ne!(sys.layout(), before);
        assert!(sys.machine().bpu().btb().is_empty(), "predictors cold");
    }
}

#[cfg(test)]
mod kpti_tests {
    use super::*;

    #[test]
    fn kpti_defaults_on_and_charges_transition_cost() {
        let mut on = System::new(UarchProfile::zen3(), 1 << 28, 60).unwrap();
        assert!(on.kpti());
        let mut off = System::new(UarchProfile::zen3(), 1 << 28, 60).unwrap();
        off.set_kpti(false);
        let c0 = on.machine().cycles();
        on.getpid().unwrap();
        let with_kpti = on.machine().cycles() - c0;
        let c0 = off.machine().cycles();
        off.getpid().unwrap();
        let without = off.machine().cycles() - c0;
        assert!(with_kpti > without, "{with_kpti} vs {without}");
    }

    #[test]
    fn phantom_training_is_kpti_oblivious() {
        // The §6.2 training never touches kernel mappings: the BTB entry
        // lands identically with KPTI on or off.
        for kpti in [true, false] {
            let mut sys = System::new(UarchProfile::zen3(), 1 << 28, 61).unwrap();
            sys.set_kpti(kpti);
            let k = sys.image().listing1_nop;
            let u = VirtAddr::new(k.raw() ^ 0xffff_bff8_0000_0000);
            sys.train_user_branch(u, BranchKind::Indirect, VirtAddr::new(0x30_0000))
                .unwrap();
            assert!(sys.machine().bpu().btb().lookup(k).is_some(), "kpti={kpti}");
        }
    }

    #[test]
    fn unknown_syscall_returns_cleanly() {
        let mut sys = System::new(UarchProfile::zen2(), 1 << 28, 62).unwrap();
        sys.syscall(9999, &[1, 2, 3]).unwrap();
        assert_eq!(
            sys.machine().level(),
            PrivilegeLevel::User,
            "-ENOSYS path sysrets"
        );
    }
}
