//! The SSD controller.
//!
//! [`SsdController`] owns the flash device and every controller-side
//! resource: the page-level and coarse-grained FTLs, the internal DRAM, the
//! embedded cores, the ECC engine and the maintenance manager. It implements
//! the conventional read/write path and exposes its resources to the REIS
//! engine (in `reis-core`), which drives the flash array directly for
//! in-storage search.

use serde::{Deserialize, Serialize};

use reis_nand::{FlashDevice, FlashStats, Nanos, PageAddr};

use crate::allocator::{PageAllocator, StripedRegion};
use crate::config::SsdConfig;
use crate::cores::EmbeddedCores;
use crate::dram::InternalDram;
use crate::ecc::EccEngine;
use crate::error::{Result, SsdError};
use crate::ftl::{CoarseFtl, PageLevelFtl};
use crate::hybrid::{HybridPolicy, RegionKind};
use crate::maintenance::{MaintenanceManager, SsdMode};

/// Outcome of a conventional host read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostReadOutcome {
    /// Page payload after error correction.
    pub data: Vec<u8>,
    /// Total latency: FTL lookup, flash read, channel transfer and ECC.
    pub latency: Nanos,
    /// Whether ECC fully corrected the raw read.
    pub corrected: bool,
}

/// Snapshot (or delta) of every activity counter the controller tracks:
/// flash operations, internal-DRAM traffic and ECC work.
///
/// Parallel search paths — batch-search workers running on controller
/// replicas, and intra-query scan shards accounting their flash work
/// locally — measure their activity as a delta between two snapshots and
/// fold it back into the primary controller with
/// [`SsdController::absorb_activity`], so the primary's counters stay
/// authoritative no matter how the work was parallelized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerActivity {
    /// Flash device operation counters.
    pub flash: FlashStats,
    /// Bytes read from the internal DRAM.
    pub dram_bytes_read: u64,
    /// Bytes written to the internal DRAM.
    pub dram_bytes_written: u64,
    /// Pages decoded by the ECC engine.
    pub ecc_pages_decoded: u64,
    /// Bit errors corrected by the ECC engine.
    pub ecc_bits_corrected: u64,
}

impl ControllerActivity {
    /// An activity delta consisting of flash work only — the shape fused
    /// multi-query scans produce: they sense borrowed pages and run the
    /// in-plane kernels without touching DRAM or the ECC engine, then fold
    /// the tally back via [`SsdController::absorb_activity`]. Each page of a
    /// fused scan is counted as sensed *once* no matter how many queries it
    /// was scored against (see `FlashStats::fused_scan`).
    pub fn flash_only(flash: FlashStats) -> Self {
        ControllerActivity {
            flash,
            ..ControllerActivity::default()
        }
    }
}

/// The simulated SSD controller.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdController {
    config: SsdConfig,
    device: FlashDevice,
    page_ftl: PageLevelFtl,
    coarse_ftl: CoarseFtl,
    allocator: PageAllocator,
    dram: InternalDram,
    cores: EmbeddedCores,
    ecc: EccEngine,
    maintenance: MaintenanceManager,
}

impl SsdController {
    /// Create a controller (and its flash device) from a configuration.
    pub fn new(config: SsdConfig) -> Self {
        let device = FlashDevice::new(config.geometry, config.timing);
        let allocator = PageAllocator::new(&config.geometry);
        SsdController {
            config,
            device,
            page_ftl: PageLevelFtl::new(),
            coarse_ftl: CoarseFtl::new(),
            allocator,
            dram: InternalDram::new(config.dram),
            cores: EmbeddedCores::new(config.cores),
            ecc: EccEngine::new(config.ecc),
            maintenance: MaintenanceManager::new(),
        }
    }

    /// The configuration this controller was built from.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The SLC/TLC partitioning policy.
    pub fn hybrid_policy(&self) -> HybridPolicy {
        self.config.hybrid
    }

    /// Immutable access to the flash device.
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Mutable access to the flash device (used by the in-storage engine).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }

    /// The embedded-core cost model.
    pub fn cores(&self) -> &EmbeddedCores {
        &self.cores
    }

    /// Immutable access to the internal DRAM.
    pub fn dram(&self) -> &InternalDram {
        &self.dram
    }

    /// Mutable access to the internal DRAM.
    pub fn dram_mut(&mut self) -> &mut InternalDram {
        &mut self.dram
    }

    /// Immutable access to the coarse-grained FTL (R-DB).
    pub fn coarse_ftl(&self) -> &CoarseFtl {
        &self.coarse_ftl
    }

    /// Mutable access to the coarse-grained FTL (R-DB).
    pub fn coarse_ftl_mut(&mut self) -> &mut CoarseFtl {
        &mut self.coarse_ftl
    }

    /// Immutable access to the page-level FTL.
    pub fn page_ftl(&self) -> &PageLevelFtl {
        &self.page_ftl
    }

    /// Immutable access to the ECC engine.
    pub fn ecc(&self) -> &EccEngine {
        &self.ecc
    }

    /// Mutable access to the ECC engine (used by the in-storage engine for
    /// TLC reads it routes through the controller).
    pub fn ecc_mut(&mut self) -> &mut EccEngine {
        &mut self.ecc
    }

    /// Immutable access to the maintenance manager.
    pub fn maintenance(&self) -> &MaintenanceManager {
        &self.maintenance
    }

    /// Current operating mode.
    pub fn mode(&self) -> SsdMode {
        self.maintenance.mode()
    }

    /// Switch the device into the given mode, returning the FTL-swap latency.
    pub fn switch_mode(&mut self, mode: SsdMode) -> Nanos {
        self.maintenance.switch_mode(mode)
    }

    /// Reserve a physically contiguous, plane-striped region of `pages`
    /// pages for a database region of the given kind, accounting its DRAM
    /// bookkeeping under `name`.
    ///
    /// Released regions are recycled first: a previously released stripe
    /// range is handed out again once every page in it has been erased
    /// (compaction reclaims fully-invalid blocks, which is what makes the
    /// pages reprogrammable). Only if no released window qualifies does the
    /// reservation fall back to never-touched pages.
    ///
    /// # Errors
    ///
    /// * [`SsdError::OutOfSpace`] if the flash array cannot fit the region.
    /// * [`SsdError::DramExhausted`] if the bookkeeping does not fit in DRAM.
    pub fn reserve_region(
        &mut self,
        name: &str,
        pages: usize,
        _kind: RegionKind,
    ) -> Result<StripedRegion> {
        let geometry = self.config.geometry;
        let device = &self.device;
        let recycled = self.allocator.reserve_recycled(pages, |stripe| {
            let addr = crate::allocator::stripe_to_page(&geometry, stripe);
            !device.is_programmed(addr).unwrap_or(true)
        });
        let region = match recycled {
            Some(region) => region,
            None => self.allocator.reserve(pages)?,
        };
        // Region bookkeeping lives in DRAM next to the R-DB record.
        self.dram.allocate(name, crate::ftl::COARSE_RECORD_BYTES)?;
        Ok(region)
    }

    /// Release a database region: its still-programmed pages are marked
    /// invalid for block reclamation, its stripes return to the allocator's
    /// free list, and its DRAM bookkeeping under `name` is freed.
    ///
    /// The pages stay physically programmed until
    /// [`SsdController::reclaim_invalid_blocks`] erases the blocks they
    /// complete; only then can the stripes actually be recycled.
    pub fn release_region(&mut self, name: &str, region: &StripedRegion) {
        for offset in 0..region.len {
            if let Ok(addr) = region.page_at(&self.config.geometry, offset) {
                if self.device.is_programmed(addr).unwrap_or(false) {
                    self.maintenance.mark_invalid(addr);
                }
            }
        }
        self.allocator.release(region);
        self.dram.release(name);
    }

    /// Erase every block whose programmed pages have all been invalidated
    /// (see [`MaintenanceManager::reclaim_invalid_blocks`]), returning the
    /// number of blocks erased and the total erase latency.
    ///
    /// # Errors
    ///
    /// Propagates flash erase errors.
    pub fn reclaim_invalid_blocks(&mut self) -> Result<(usize, Nanos)> {
        self.maintenance.reclaim_invalid_blocks(&mut self.device)
    }

    /// Program one page of a database region with the scheme mandated by the
    /// hybrid policy for its kind, returning the program latency.
    ///
    /// # Errors
    ///
    /// Propagates flash programming errors (already-programmed page,
    /// oversized payload, invalid address).
    pub fn program_region_page(
        &mut self,
        region: &StripedRegion,
        offset: usize,
        kind: RegionKind,
        data: &[u8],
        oob: &[u8],
    ) -> Result<Nanos> {
        let addr = region.page_at(&self.config.geometry, offset)?;
        let scheme = self.config.hybrid.scheme_for(kind);
        Ok(self.device.program_page(addr, data, oob, scheme)?)
    }

    /// Read one page of a database region through the controller, applying
    /// ECC when the region's programming scheme requires it.
    ///
    /// Allocates a fresh buffer per call; hot loops should prefer
    /// [`SsdController::read_region_page_into`], which stages the readout in
    /// caller-pooled buffers instead.
    ///
    /// # Errors
    ///
    /// Propagates flash read errors.
    pub fn read_region_page(
        &mut self,
        region: &StripedRegion,
        offset: usize,
        kind: RegionKind,
    ) -> Result<HostReadOutcome> {
        let mut data = Vec::new();
        let mut oob = Vec::new();
        let (latency, corrected) =
            self.read_region_page_into(region, offset, kind, &mut data, &mut oob)?;
        Ok(HostReadOutcome {
            data,
            latency,
            corrected,
        })
    }

    /// Read one page of a database region through the controller into
    /// caller-supplied staging buffers (cleared first), applying ECC when
    /// the region's programming scheme requires it. Returns the read latency
    /// and whether ECC fully corrected the raw read.
    ///
    /// This is the pooled variant of [`SsdController::read_region_page`]:
    /// `data` stands in for the controller's ECC staging buffer, so a
    /// page-ordered rerank or document-fetch loop that reuses one buffer
    /// performs no per-page heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates flash read errors.
    pub fn read_region_page_into(
        &mut self,
        region: &StripedRegion,
        offset: usize,
        kind: RegionKind,
        data: &mut Vec<u8>,
        oob: &mut Vec<u8>,
    ) -> Result<(Nanos, bool)> {
        let addr = region.page_at(&self.config.geometry, offset)?;
        let meta = self.device.read_page_into(addr, data, oob)?;
        let mut latency = meta.latency;
        let mut corrected = true;
        if self.config.hybrid.needs_ecc(kind) {
            let outcome = self.ecc.decode_page(meta.bit_errors);
            latency += outcome.latency;
            corrected = outcome.corrected;
            if corrected && meta.bit_errors > 0 {
                self.device.pristine_page_into(addr, data)?;
            }
        }
        // Staging the page in controller DRAM before it moves to the host.
        latency += self.dram.write(data.len());
        Ok((latency, corrected))
    }

    /// Conventional host write of one logical page.
    ///
    /// The write allocates a fresh physical page (out-of-place update),
    /// invalidates any previous mapping, and updates the page-level FTL.
    ///
    /// # Errors
    ///
    /// * [`SsdError::WrongMode`] if the device is in RAG mode.
    /// * [`SsdError::OutOfSpace`] if no free page is available.
    /// * Flash programming errors.
    pub fn host_write(&mut self, lpa: u64, data: &[u8]) -> Result<Nanos> {
        if self.mode() != SsdMode::Normal {
            return Err(SsdError::WrongMode {
                current: "RAG",
                required: "normal",
            });
        }
        let region = self.allocator.reserve(1)?;
        let addr = region.page_at(&self.config.geometry, 0)?;
        let scheme = self.config.hybrid.bulk_scheme;
        let mut latency = self.device.program_page(addr, data, &[], scheme)?;
        latency += self.cores.ftl_lookups(1);
        latency += self.dram.write(crate::ftl::PAGE_ENTRY_BYTES);
        if let Some(stale) = self.page_ftl.map(lpa, addr) {
            self.maintenance.mark_invalid(stale);
        }
        Ok(latency)
    }

    /// Conventional host read of one logical page.
    ///
    /// # Errors
    ///
    /// * [`SsdError::WrongMode`] if the device is in RAG mode.
    /// * [`SsdError::UnmappedLogicalPage`] if the page was never written.
    /// * Flash read errors.
    pub fn host_read(&mut self, lpa: u64) -> Result<HostReadOutcome> {
        if self.mode() != SsdMode::Normal {
            return Err(SsdError::WrongMode {
                current: "RAG",
                required: "normal",
            });
        }
        let addr = self.page_ftl.translate(lpa)?;
        let mut latency = self.cores.ftl_lookups(1) + self.dram.read(crate::ftl::PAGE_ENTRY_BYTES);
        let readout = self.device.read_page(addr)?;
        latency += readout.latency;
        let ecc_outcome = self.ecc.decode_page(readout.bit_errors);
        latency += ecc_outcome.latency;
        let data = if ecc_outcome.corrected && readout.bit_errors > 0 {
            self.device.pristine_page_data(addr)?.0
        } else {
            readout.data
        };
        Ok(HostReadOutcome {
            data,
            latency,
            corrected: ecc_outcome.corrected,
        })
    }

    /// Borrow the stored bytes of a region page for a read-only page scan:
    /// the resolved physical address, the user data and the OOB bytes.
    ///
    /// Unlike [`SsdController::read_region_page`] this copies nothing,
    /// stages nothing in DRAM and records no statistics — scans (and each
    /// of their shards) account their flash activity locally and the engine
    /// folds it back into the device when the scan completes. It is
    /// only exact for regions whose programming scheme reads error-free
    /// (the ESP-SLC embedding regions the in-plane scan targets).
    ///
    /// # Errors
    ///
    /// * [`SsdError::RegionOutOfBounds`] if the offset exceeds the region.
    /// * Flash errors for unprogrammed pages.
    pub fn scan_region_page(
        &self,
        region: &StripedRegion,
        offset: usize,
    ) -> Result<(PageAddr, &[u8], &[u8])> {
        let addr = region.page_at(&self.config.geometry, offset)?;
        let (data, oob, _scheme) = self.device.stored_page(addr)?;
        Ok((addr, data, oob))
    }

    /// Snapshot every activity counter (flash, DRAM, ECC) of this
    /// controller, for later differencing with
    /// [`SsdController::activity_since`].
    pub fn activity_snapshot(&self) -> ControllerActivity {
        ControllerActivity {
            flash: *self.device.stats(),
            dram_bytes_read: self.dram.bytes_read(),
            dram_bytes_written: self.dram.bytes_written(),
            ecc_pages_decoded: self.ecc.pages_decoded(),
            ecc_bits_corrected: self.ecc.bits_corrected(),
        }
    }

    /// The activity performed since `before` was snapshotted (element-wise
    /// difference of all counters).
    pub fn activity_since(&self, before: &ControllerActivity) -> ControllerActivity {
        let now = self.activity_snapshot();
        ControllerActivity {
            flash: now.flash.delta_since(&before.flash),
            dram_bytes_read: now.dram_bytes_read - before.dram_bytes_read,
            dram_bytes_written: now.dram_bytes_written - before.dram_bytes_written,
            ecc_pages_decoded: now.ecc_pages_decoded - before.ecc_pages_decoded,
            ecc_bits_corrected: now.ecc_bits_corrected - before.ecc_bits_corrected,
        }
    }

    /// Merge an externally measured activity delta into this controller's
    /// counters: batch-search worker replicas and intra-query scan shards
    /// perform real work that the primary controller must account for.
    pub fn absorb_activity(&mut self, delta: &ControllerActivity) {
        self.device.absorb_stats(&delta.flash);
        self.dram
            .absorb_traffic(delta.dram_bytes_read, delta.dram_bytes_written);
        self.ecc
            .absorb_counters(delta.ecc_pages_decoded, delta.ecc_bits_corrected);
    }

    /// Translate a page address helper for a region offset (convenience for
    /// the in-storage engine).
    ///
    /// # Errors
    ///
    /// Returns [`SsdError::RegionOutOfBounds`] if the offset exceeds the
    /// region.
    pub fn region_page(&self, region: &StripedRegion, offset: usize) -> Result<PageAddr> {
        region.page_at(&self.config.geometry, offset)
    }

    /// Free flash pages remaining in the allocator.
    pub fn free_pages(&self) -> usize {
        self.allocator.free_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> SsdController {
        SsdController::new(SsdConfig::tiny())
    }

    #[test]
    fn host_write_then_read_roundtrips_through_ftl_and_ecc() {
        let mut ssd = controller();
        let data = vec![0x42; 4096];
        let w = ssd.host_write(10, &data).unwrap();
        assert!(w > Nanos::ZERO);
        let read = ssd.host_read(10).unwrap();
        assert_eq!(read.data, data);
        assert!(read.corrected);
        assert!(read.latency > Nanos::ZERO);
        assert_eq!(ssd.ecc().pages_decoded(), 1);
        assert!(matches!(
            ssd.host_read(99),
            Err(SsdError::UnmappedLogicalPage(99))
        ));
    }

    #[test]
    fn overwriting_a_logical_page_invalidates_the_old_copy() {
        let mut ssd = controller();
        ssd.host_write(5, &[1u8; 64]).unwrap();
        let first_phys = ssd.page_ftl().translate(5).unwrap();
        ssd.host_write(5, &[2u8; 64]).unwrap();
        let second_phys = ssd.page_ftl().translate(5).unwrap();
        assert_ne!(first_phys, second_phys);
        assert_eq!(ssd.maintenance().invalid_count(first_phys.block_addr()), 1);
        assert_eq!(ssd.host_read(5).unwrap().data[0], 2);
    }

    #[test]
    fn rag_mode_blocks_conventional_io() {
        let mut ssd = controller();
        ssd.switch_mode(SsdMode::Rag);
        assert!(matches!(
            ssd.host_write(1, &[0u8; 16]),
            Err(SsdError::WrongMode { .. })
        ));
        assert!(matches!(ssd.host_read(1), Err(SsdError::WrongMode { .. })));
        ssd.switch_mode(SsdMode::Normal);
        ssd.host_write(1, &[0u8; 16]).unwrap();
    }

    #[test]
    fn region_lifecycle_program_and_read_with_policy_schemes() {
        let mut ssd = controller();
        let emb = ssd
            .reserve_region("db0/embeddings", 4, RegionKind::BinaryEmbeddings)
            .unwrap();
        let docs = ssd
            .reserve_region("db0/documents", 4, RegionKind::Documents)
            .unwrap();
        ssd.program_region_page(
            &emb,
            0,
            RegionKind::BinaryEmbeddings,
            &[0xAB; 4096],
            &[1, 2, 3],
        )
        .unwrap();
        ssd.program_region_page(&docs, 0, RegionKind::Documents, &[0xCD; 4096], &[])
            .unwrap();
        let emb_read = ssd
            .read_region_page(&emb, 0, RegionKind::BinaryEmbeddings)
            .unwrap();
        let doc_read = ssd
            .read_region_page(&docs, 0, RegionKind::Documents)
            .unwrap();
        assert_eq!(emb_read.data[0], 0xAB);
        assert_eq!(doc_read.data[0], 0xCD);
        // Only the document (TLC) read goes through ECC.
        assert_eq!(ssd.ecc().pages_decoded(), 1);
        // The regions are disjoint and tracked by the allocator.
        assert_eq!(ssd.free_pages(), ssd.config().geometry.total_pages() - 8);
    }

    #[test]
    fn scan_region_page_borrows_stored_bytes_without_counting() {
        let mut ssd = controller();
        let region = ssd
            .reserve_region("db0/embeddings", 2, RegionKind::BinaryEmbeddings)
            .unwrap();
        ssd.program_region_page(
            &region,
            1,
            RegionKind::BinaryEmbeddings,
            &[0x5A; 4096],
            &[9, 8, 7],
        )
        .unwrap();
        let before = ssd.activity_snapshot();
        let (addr, data, oob) = ssd.scan_region_page(&region, 1).unwrap();
        assert_eq!(addr, region.page_at(&ssd.config().geometry, 1).unwrap());
        assert_eq!(data.len(), ssd.config().geometry.page_size_bytes);
        assert_eq!(data[0], 0x5A);
        assert_eq!(&oob[..3], &[9, 8, 7]);
        // A shard read records nothing; the shard's own stats are merged
        // back through absorb_activity instead.
        let delta = ssd.activity_since(&before);
        assert_eq!(delta, ControllerActivity::default());
        assert!(ssd.scan_region_page(&region, 0).is_err(), "unprogrammed");
    }

    #[test]
    fn activity_snapshot_absorb_roundtrip() {
        let mut primary = controller();
        let mut replica = primary.clone();
        let before = replica.activity_snapshot();
        replica.host_write(3, &[1u8; 512]).unwrap();
        replica.host_read(3).unwrap();
        let delta = replica.activity_since(&before);
        assert!(delta.flash.page_reads > 0);
        assert!(delta.ecc_pages_decoded > 0);
        primary.absorb_activity(&delta);
        assert_eq!(primary.activity_snapshot(), replica.activity_snapshot());
    }

    #[test]
    fn reserve_region_fails_when_flash_is_full() {
        let mut ssd = controller();
        let total = ssd.config().geometry.total_pages();
        ssd.reserve_region("big", total, RegionKind::Documents)
            .unwrap();
        assert!(matches!(
            ssd.reserve_region("more", 1, RegionKind::Documents),
            Err(SsdError::OutOfSpace { .. })
        ));
    }
}
