//! The flash array: pages, blocks, planes, dies and the whole device.
//!
//! [`FlashDevice`] is the functional-plus-timing model of the NAND flash
//! array of one SSD. Every operation both mutates the simulated state (page
//! contents, latch contents, erase counters) and returns the simulated
//! latency of the operation, so higher layers can compose latencies with or
//! without pipelining while relying on functionally correct data.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::cell::ProgramScheme;
use crate::error::{NandError, Result};
use crate::geometry::{BlockAddr, Geometry, PageAddr, PlaneAddr};
use crate::latch::{broadcast_image, Latch, PageBuffer};
use crate::peripheral::{FailBitCounter, PassFailChecker, XorLogic};
use crate::reliability::{ReliabilityModel, SplitMix64};
use crate::stats::FlashStats;
use crate::timing::{Nanos, TimingParams};

/// One physical flash page: user data, OOB bytes and programming state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Page {
    data: Option<Vec<u8>>,
    oob: Option<Vec<u8>>,
    scheme: Option<ProgramScheme>,
}

impl Page {
    fn is_programmed(&self) -> bool {
        self.data.is_some()
    }

    fn reset(&mut self) {
        self.data = None;
        self.oob = None;
        self.scheme = None;
    }
}

/// One erase block: a run of pages plus its program/erase cycle counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Block {
    pages: Vec<Page>,
    erase_count: u64,
}

impl Block {
    fn new(pages_per_block: usize) -> Self {
        Block {
            pages: vec![Page::default(); pages_per_block],
            erase_count: 0,
        }
    }
}

/// One plane: lazily allocated blocks plus the plane's page buffer.
///
/// Blocks are held behind [`Arc`] with copy-on-write mutation
/// ([`Arc::make_mut`]): cloning a device for a batch-search worker then
/// costs one refcount bump per programmed block instead of a deep copy of
/// the stored pages, and read-only scans on the replicas share the flash
/// contents with the primary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Plane {
    buffer: PageBuffer,
    blocks: Vec<Option<Arc<Block>>>,
}

impl Plane {
    fn new(addr: PlaneAddr, geometry: &Geometry) -> Self {
        Plane {
            buffer: PageBuffer::new(addr, geometry.page_size_bytes),
            blocks: vec![None; geometry.blocks_per_plane],
        }
    }

    fn block_mut(&mut self, block: usize, pages_per_block: usize) -> &mut Block {
        Arc::make_mut(
            self.blocks[block].get_or_insert_with(|| Arc::new(Block::new(pages_per_block))),
        )
    }

    fn block(&self, block: usize) -> Option<&Block> {
        self.blocks.get(block).and_then(|b| b.as_deref())
    }
}

/// Metadata of a page read whose payload was written into caller-supplied
/// buffers (the allocation-free variant of [`PageReadout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReadMeta {
    /// The scheme the page was programmed with.
    pub scheme: ProgramScheme,
    /// Number of raw bit errors injected into this read.
    pub bit_errors: usize,
    /// Simulated latency of the read, including the channel transfer.
    pub latency: Nanos,
}

/// Result of a full page read that reaches the SSD controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageReadout {
    /// The (possibly error-injected) user data of the page.
    pub data: Vec<u8>,
    /// The OOB bytes of the page.
    pub oob: Vec<u8>,
    /// The scheme the page was programmed with.
    pub scheme: ProgramScheme,
    /// Number of raw bit errors injected into this read.
    pub bit_errors: usize,
    /// Simulated latency of the read, including the channel transfer.
    pub latency: Nanos,
}

/// The functional + timing model of an SSD's NAND flash array.
///
/// # Examples
///
/// ```
/// use reis_nand::array::FlashDevice;
/// use reis_nand::cell::ProgramScheme;
/// use reis_nand::geometry::{Geometry, PageAddr};
///
/// # fn main() -> Result<(), reis_nand::error::NandError> {
/// let mut device = FlashDevice::new(Geometry::tiny(), Default::default());
/// let addr = PageAddr::new(0, 0, 0, 0, 0);
/// let data = vec![0xA5; device.geometry().page_size_bytes];
/// device.program_page(addr, &data, &[], ProgramScheme::EnhancedSlc)?;
/// let readout = device.read_page(addr)?;
/// assert_eq!(readout.data, data);
/// assert_eq!(readout.bit_errors, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashDevice {
    geometry: Geometry,
    timing: TimingParams,
    reliability: ReliabilityModel,
    rng: SplitMix64,
    planes: Vec<Plane>,
    stats: FlashStats,
}

impl FlashDevice {
    /// Create a device with the given geometry and timing parameters, the
    /// nominal reliability model, and a fixed error-injection seed.
    pub fn new(geometry: Geometry, timing: TimingParams) -> Self {
        Self::with_reliability(geometry, timing, ReliabilityModel::nominal(), 0xC0FFEE)
    }

    /// Create a device with full control over the reliability model and the
    /// error-injection seed.
    pub fn with_reliability(
        geometry: Geometry,
        timing: TimingParams,
        reliability: ReliabilityModel,
        seed: u64,
    ) -> Self {
        let planes = geometry
            .planes()
            .map(|addr| Plane::new(addr, &geometry))
            .collect();
        FlashDevice {
            geometry,
            timing,
            reliability,
            rng: SplitMix64::new(seed),
            planes,
            stats: FlashStats::new(),
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The timing parameters in use.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Reset the operation counters (the stored data is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::new();
    }

    /// Merge externally measured operation counters into this device's
    /// statistics. Batch search runs queries on per-worker device replicas;
    /// their per-query deltas are folded back here so the primary device's
    /// counters stay authoritative.
    pub fn absorb_stats(&mut self, delta: &FlashStats) {
        self.stats.accumulate(delta);
    }

    /// Re-seed the read-error-injection generator. Cloned devices (batch
    /// search workers) inherit the primary's RNG state; giving every replica
    /// a distinct seed decorrelates their injected error streams.
    pub fn reseed_error_rng(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
    }

    fn plane_index(&self, addr: PlaneAddr) -> Result<usize> {
        self.geometry.check_plane(addr)?;
        Ok(self.geometry.plane_index(addr))
    }

    /// Immutable access to the page buffer of a plane.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid plane address.
    pub fn page_buffer(&self, addr: PlaneAddr) -> Result<&PageBuffer> {
        let idx = self.plane_index(addr)?;
        Ok(&self.planes[idx].buffer)
    }

    /// Whether a page has been programmed since its block was last erased.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid page address.
    pub fn is_programmed(&self, addr: PageAddr) -> Result<bool> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        Ok(self.planes[idx]
            .block(addr.block)
            .map(|b| b.pages[addr.page].is_programmed())
            .unwrap_or(false))
    }

    /// Erase a block, clearing all of its pages and bumping its erase count.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn erase_block(&mut self, addr: BlockAddr) -> Result<Nanos> {
        self.geometry.check_plane(addr.plane_addr())?;
        if addr.block >= self.geometry.blocks_per_plane {
            return Err(NandError::BlockOutOfRange(addr));
        }
        let pages_per_block = self.geometry.pages_per_block;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let block = self.planes[idx].block_mut(addr.block, pages_per_block);
        for page in &mut block.pages {
            page.reset();
        }
        block.erase_count += 1;
        self.stats.block_erases += 1;
        Ok(self.timing.t_erase + self.timing.t_command_overhead)
    }

    /// Number of erase cycles a block has seen (0 if never touched).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn erase_count(&self, addr: BlockAddr) -> Result<u64> {
        self.geometry.check_plane(addr.plane_addr())?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        Ok(self.planes[idx]
            .block(addr.block)
            .map(|b| b.erase_count)
            .unwrap_or(0))
    }

    /// Program a page with user data and OOB metadata using `scheme`.
    ///
    /// The returned latency includes the channel transfer of the data into
    /// the die and the program time of the chosen scheme.
    ///
    /// # Errors
    ///
    /// * [`NandError::AddressOutOfRange`] for an invalid address.
    /// * [`NandError::PageAlreadyProgrammed`] if the page was not erased
    ///   since its last program (NAND pages cannot be overwritten in place).
    /// * [`NandError::DataTooLarge`] / [`NandError::OobTooLarge`] if the data
    ///   or OOB payload exceed the page / OOB capacity.
    pub fn program_page(
        &mut self,
        addr: PageAddr,
        data: &[u8],
        oob: &[u8],
        scheme: ProgramScheme,
    ) -> Result<Nanos> {
        self.geometry.check_page(addr)?;
        if data.len() > self.geometry.page_size_bytes {
            return Err(NandError::DataTooLarge {
                provided: data.len(),
                capacity: self.geometry.page_size_bytes,
            });
        }
        if oob.len() > self.geometry.oob_size_bytes {
            return Err(NandError::OobTooLarge {
                provided: oob.len(),
                capacity: self.geometry.oob_size_bytes,
            });
        }
        let pages_per_block = self.geometry.pages_per_block;
        let page_size = self.geometry.page_size_bytes;
        let oob_size = self.geometry.oob_size_bytes;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let block = self.planes[idx].block_mut(addr.block, pages_per_block);
        let page = &mut block.pages[addr.page];
        if page.is_programmed() {
            return Err(NandError::PageAlreadyProgrammed(addr));
        }
        let mut stored = vec![0u8; page_size];
        stored[..data.len()].copy_from_slice(data);
        let mut stored_oob = vec![0u8; oob_size];
        stored_oob[..oob.len()].copy_from_slice(oob);
        page.data = Some(stored);
        page.oob = Some(stored_oob);
        page.scheme = Some(scheme);

        self.stats.page_programs += 1;
        self.stats.bytes_from_controller += (data.len() + oob.len()) as u64;
        let transfer = self.timing.channel_transfer(data.len() + oob.len());
        Ok(transfer + self.timing.program_latency(scheme) + self.timing.t_command_overhead)
    }

    fn sense_into_buffer(&mut self, addr: PageAddr) -> Result<(ProgramScheme, usize, Nanos)> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        // Split-borrow the plane so the stored page (immutable) can be copied
        // into the plane's buffer (mutable) without cloning it first: a scan
        // re-senses thousands of pages into the same latch buffers.
        let Plane { buffer, blocks } = &mut self.planes[idx];
        let scheme = {
            let block = blocks
                .get(addr.block)
                .and_then(|b| b.as_deref())
                .ok_or(NandError::PageNotProgrammed(addr))?;
            let page = &block.pages[addr.page];
            let data = page
                .data
                .as_deref()
                .ok_or(NandError::PageNotProgrammed(addr))?;
            let oob = page.oob.as_deref().unwrap_or(&[]);
            buffer.load_sensing_copy(data, oob);
            page.scheme.unwrap_or_default()
        };
        let bit_errors = if self.reliability.effective_ber(scheme) > 0.0 {
            let sensed = buffer.sensing_mut().expect("sensing latch was just filled");
            self.reliability
                .inject_read_errors(sensed, scheme, &mut self.rng)
        } else {
            0
        };
        self.stats.page_reads += 1;
        self.stats.injected_bit_errors += bit_errors as u64;
        Ok((
            scheme,
            bit_errors,
            self.timing.read_latency(scheme) + self.timing.t_command_overhead,
        ))
    }

    /// Sense a page into its plane's sensing latch without transferring it to
    /// the controller. This is the read half of REIS's in-plane distance
    /// computation.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if the page holds no data, or
    /// [`NandError::AddressOutOfRange`] for an invalid address.
    pub fn sense_page(&mut self, addr: PageAddr) -> Result<Nanos> {
        let (_, _, latency) = self.sense_into_buffer(addr)?;
        Ok(latency)
    }

    /// Read a page all the way to the controller: sense it, then transfer the
    /// user data and OOB bytes over the channel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense_page`].
    pub fn read_page(&mut self, addr: PageAddr) -> Result<PageReadout> {
        let (scheme, bit_errors, sense_latency) = self.sense_into_buffer(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let buffer = &self.planes[idx].buffer;
        let data = buffer
            .sensing()
            .expect("sensing latch was just filled")
            .to_vec();
        let oob = buffer.oob().unwrap_or(&[]).to_vec();
        let bytes = data.len() + oob.len();
        self.stats.bytes_to_controller += bytes as u64;
        let latency = sense_latency + self.timing.channel_transfer(bytes);
        Ok(PageReadout {
            data,
            oob,
            scheme,
            bit_errors,
            latency,
        })
    }

    /// Read a page all the way to the controller, writing the user data and
    /// OOB bytes into caller-supplied buffers (which are cleared first).
    ///
    /// Functionally and statistically identical to
    /// [`FlashDevice::read_page`], but reuses the caller's allocations so a
    /// pooled readout loop performs no per-page heap allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense_page`].
    pub fn read_page_into(
        &mut self,
        addr: PageAddr,
        data: &mut Vec<u8>,
        oob: &mut Vec<u8>,
    ) -> Result<PageReadMeta> {
        let (scheme, bit_errors, sense_latency) = self.sense_into_buffer(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let buffer = &self.planes[idx].buffer;
        data.clear();
        data.extend_from_slice(buffer.sensing().expect("sensing latch was just filled"));
        oob.clear();
        oob.extend_from_slice(buffer.oob().unwrap_or(&[]));
        let bytes = data.len() + oob.len();
        self.stats.bytes_to_controller += bytes as u64;
        Ok(PageReadMeta {
            scheme,
            bit_errors,
            latency: sense_latency + self.timing.channel_transfer(bytes),
        })
    }

    /// Read only the OOB bytes of a page to the controller.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashDevice::sense_page`].
    pub fn read_oob(&mut self, addr: PageAddr) -> Result<(Vec<u8>, Nanos)> {
        let (_, _, sense_latency) = self.sense_into_buffer(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let oob = self.planes[idx].buffer.oob().unwrap_or(&[]).to_vec();
        self.stats.bytes_to_controller += oob.len() as u64;
        let latency = sense_latency + self.timing.channel_transfer(oob.len());
        Ok((oob, latency))
    }

    /// Broadcast a query payload into the cache latches of every plane of one
    /// die (Input Broadcasting; the `IBC` command). With `multi_plane` set,
    /// all planes latch the payload simultaneously (MPIBC), paying the die-I/O
    /// transfer only once.
    ///
    /// The payload is tiled once into a page image that every plane of the
    /// die shares (see [`crate::latch::broadcast_image`]).
    ///
    /// # Errors
    ///
    /// * [`NandError::AddressOutOfRange`] for an invalid channel/die.
    /// * [`NandError::InvalidBroadcastPayload`] if the payload is empty or
    ///   does not evenly divide the page size; no latch is changed.
    pub fn input_broadcast(
        &mut self,
        channel: usize,
        die: usize,
        payload: &[u8],
        multi_plane: bool,
    ) -> Result<Nanos> {
        self.geometry.check_plane(PlaneAddr::new(channel, die, 0))?;
        let first = self.geometry.plane_index(PlaneAddr::new(channel, die, 0));
        self.broadcast_into_planes(
            first..first + self.geometry.planes_per_die,
            payload,
            multi_plane,
        )?;
        Ok(self
            .timing
            .input_broadcast(payload.len(), self.geometry.planes_per_die, multi_plane))
    }

    /// Broadcast a query payload into the cache latches of every plane of
    /// every die: the device-wide Input Broadcast that precedes an in-storage
    /// search. Counters are those of one [`FlashDevice::input_broadcast`] per
    /// die. The returned latency prices dies on one channel one after the
    /// other and the channels in parallel.
    ///
    /// The payload is tiled once and every plane shares the image, so the
    /// host cost is one page-sized copy however many planes the device has.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::InvalidBroadcastPayload`] if the payload is empty
    /// or does not evenly divide the page size; no latch is changed.
    pub fn input_broadcast_all(&mut self, payload: &[u8], multi_plane: bool) -> Result<Nanos> {
        let geometry = self.geometry;
        self.broadcast_into_planes(0..geometry.total_planes(), payload, multi_plane)?;
        let per_die =
            self.timing
                .input_broadcast(payload.len(), geometry.planes_per_die, multi_plane);
        Ok(per_die * geometry.dies_per_channel as u64)
    }

    /// Install one shared broadcast image in the cache latches of the planes
    /// at plane indices `planes` (whole dies) and count one broadcast per die.
    fn broadcast_into_planes(
        &mut self,
        planes: std::ops::Range<usize>,
        payload: &[u8],
        multi_plane: bool,
    ) -> Result<()> {
        let image = broadcast_image(payload, self.geometry.page_size_bytes)?;
        let planes_per_die = self.geometry.planes_per_die;
        let dies = planes.len() / planes_per_die;
        for plane in &mut self.planes[planes] {
            plane.buffer.load_cache(Arc::clone(&image));
        }
        self.stats.accumulate(&FlashStats::input_broadcast(
            dies,
            planes_per_die,
            payload.len(),
            multi_plane,
        ));
        Ok(())
    }

    /// XOR the cache latch (query copies) into the sensing latch (database
    /// embeddings) of one plane, storing the result in the data latch.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the plane has not both sensed a
    /// page and received a broadcast.
    pub fn xor_latches(&mut self, addr: PlaneAddr) -> Result<Nanos> {
        let idx = self.plane_index(addr)?;
        self.planes[idx].buffer.xor_cache_into_data()?;
        self.stats.xor_ops += 1;
        Ok(self.timing.t_latch_xor)
    }

    /// Run the fail-bit counter over the data latch of one plane, producing
    /// one set-bit count per `chunk_bytes` chunk (i.e. one Hamming distance
    /// per stored embedding).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the data latch is empty.
    pub fn count_fail_bits(
        &mut self,
        addr: PlaneAddr,
        chunk_bytes: usize,
    ) -> Result<(Vec<u32>, Nanos)> {
        let mut counts = Vec::new();
        let latency = self.count_fail_bits_into(addr, chunk_bytes, &mut counts)?;
        Ok((counts, latency))
    }

    /// Allocation-free variant of [`FlashDevice::count_fail_bits`]: the
    /// counts are written into `out` (cleared first), so a page-scan loop can
    /// reuse one buffer for every page.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the data latch is empty.
    pub fn count_fail_bits_into(
        &mut self,
        addr: PlaneAddr,
        chunk_bytes: usize,
        out: &mut Vec<u32>,
    ) -> Result<Nanos> {
        let idx = self.plane_index(addr)?;
        let data = self.planes[idx].buffer.read_latch(Latch::Data)?;
        FailBitCounter::count_per_chunk_into(data, chunk_bytes, out);
        self.stats.bit_count_ops += 1;
        Ok(self.timing.t_fail_bit_count)
    }

    /// Apply the pass/fail checker to a set of counts with the given
    /// distance-filter threshold, returning the per-entry pass flags.
    pub fn pass_fail_check(&mut self, counts: &[u32], threshold: u32) -> (Vec<bool>, Nanos) {
        self.stats.pass_fail_ops += 1;
        (
            PassFailChecker::passes(counts, threshold),
            self.timing.t_pass_fail_check,
        )
    }

    /// Fused pass/fail check: invoke `emit(slot, count)` for every count at
    /// or below `threshold`, returning how many passed and the checker
    /// latency. Unlike [`FlashDevice::pass_fail_check`] this never
    /// materializes a `Vec<bool>`, which keeps the scan hot path
    /// allocation-free.
    pub fn pass_fail_filter(
        &mut self,
        counts: &[u32],
        threshold: u32,
        emit: impl FnMut(usize, u32),
    ) -> (usize, Nanos) {
        self.stats.pass_fail_ops += 1;
        let passed = PassFailChecker::filter_passing(counts, threshold, emit);
        (passed, self.timing.t_pass_fail_check)
    }

    /// Transfer `bytes` from a die to the controller over its channel,
    /// returning only the latency (the caller already holds the data, e.g.
    /// TTL entries assembled from latch contents).
    pub fn transfer_to_controller(&mut self, bytes: usize) -> Nanos {
        self.stats.bytes_to_controller += bytes as u64;
        self.timing.channel_transfer(bytes)
    }

    /// Clear every plane's page buffer (all latches and OOB bytes).
    ///
    /// Latch contents are per-query scratch, not persistent state; clearing
    /// them before cloning the device for batch-search workers keeps the
    /// clones as cheap as the copy-on-write block sharing allows.
    pub fn clear_all_latches(&mut self) {
        for plane in &mut self.planes {
            plane.buffer.clear();
        }
    }

    /// Promote the sensing latch of a plane to its cache latch, freeing the
    /// sensing latch for the next read (read-page-cache-sequential mode).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::LatchEmpty`] if the sensing latch is empty.
    pub fn promote_sensing_to_cache(&mut self, addr: PlaneAddr) -> Result<()> {
        let idx = self.plane_index(addr)?;
        self.planes[idx].buffer.promote_sensing_to_cache()
    }

    /// Borrow the stored contents of a page (user data, OOB bytes and the
    /// programming scheme) without copying, error injection, timing, or
    /// statistics.
    ///
    /// This is the readout primitive of the in-place page scan: scans
    /// (sequential or split into shards, see [`crate::sharding`]) share the
    /// device immutably, score the borrowed bytes directly against the
    /// plane's cache-latch image instead of copying them through the page
    /// buffer, and account their flash activity in local [`FlashStats`] that
    /// the controller absorbs afterwards. Because no error injection happens
    /// here, callers must only use it for schemes whose reads are error-free
    /// (ESP-SLC) if they need bit-identical results to the latch-based read
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if the page holds no data, or
    /// [`NandError::AddressOutOfRange`] for an invalid address.
    pub fn stored_page(&self, addr: PageAddr) -> Result<(&[u8], &[u8], ProgramScheme)> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let page = self.planes[idx]
            .block(addr.block)
            .map(|block| &block.pages[addr.page])
            .ok_or(NandError::PageNotProgrammed(addr))?;
        let data = page
            .data
            .as_deref()
            .ok_or(NandError::PageNotProgrammed(addr))?;
        Ok((
            data,
            page.oob.as_deref().unwrap_or(&[]),
            page.scheme.unwrap_or_default(),
        ))
    }

    /// Whether reads of pages programmed with `scheme` are error-free on
    /// this device (no raw bit errors to inject). Scan sharding relies on
    /// this to guarantee that its read-only page accesses produce exactly
    /// the bytes a latch-based sense would.
    pub fn read_is_error_free(&self, scheme: ProgramScheme) -> bool {
        self.reliability.effective_ber(scheme) <= 0.0
    }

    /// Return the pristine stored contents of a page (user data and OOB)
    /// without error injection, timing, or statistics.
    ///
    /// This is a modelling backdoor used by the controller's ECC path: when
    /// the decoder reports a successful correction, the corrected payload is,
    /// by definition, the originally programmed data, which this method hands
    /// back without re-simulating the read.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if the page holds no data.
    pub fn pristine_page_data(&self, addr: PageAddr) -> Result<(Vec<u8>, Vec<u8>)> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let block = self.planes[idx]
            .block(addr.block)
            .ok_or(NandError::PageNotProgrammed(addr))?;
        let page = &block.pages[addr.page];
        let data = page
            .data
            .clone()
            .ok_or(NandError::PageNotProgrammed(addr))?;
        Ok((data, page.oob.clone().unwrap_or_default()))
    }

    /// Write the pristine stored user data of a page into a caller-supplied
    /// buffer (the allocation-free variant of
    /// [`FlashDevice::pristine_page_data`], used by the controller's pooled
    /// ECC readout).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if the page holds no data.
    pub fn pristine_page_into(&self, addr: PageAddr, data: &mut Vec<u8>) -> Result<()> {
        self.geometry.check_page(addr)?;
        let idx = self.geometry.plane_index(addr.plane_addr());
        let stored = self.planes[idx]
            .block(addr.block)
            .and_then(|block| block.pages[addr.page].data.as_deref())
            .ok_or(NandError::PageNotProgrammed(addr))?;
        data.clear();
        data.extend_from_slice(stored);
        Ok(())
    }

    /// Number of currently programmed pages in a block (0 for a block that
    /// was never touched or was erased). Garbage collection uses this to
    /// decide when every live page of a block has been invalidated and the
    /// block can be reclaimed by an erase.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::AddressOutOfRange`] for an invalid block address.
    pub fn programmed_pages_in_block(&self, addr: BlockAddr) -> Result<usize> {
        self.geometry.check_plane(addr.plane_addr())?;
        if addr.block >= self.geometry.blocks_per_plane {
            return Err(NandError::BlockOutOfRange(addr));
        }
        let idx = self.geometry.plane_index(addr.plane_addr());
        Ok(self.planes[idx]
            .block(addr.block)
            .map(|b| b.pages.iter().filter(|p| p.is_programmed()).count())
            .unwrap_or(0))
    }

    /// Read the raw XOR of two programmed pages, as the randomizer logic
    /// would produce it, without going through the latches. Primarily a
    /// verification aid for tests.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::PageNotProgrammed`] if either page is empty.
    pub fn xor_pages(&self, a: PageAddr, b: PageAddr) -> Result<Vec<u8>> {
        let read = |addr: PageAddr| -> Result<Vec<u8>> {
            self.geometry.check_page(addr)?;
            let idx = self.geometry.plane_index(addr.plane_addr());
            self.planes[idx]
                .block(addr.block)
                .and_then(|blk| blk.pages[addr.page].data.clone())
                .ok_or(NandError::PageNotProgrammed(addr))
        };
        Ok(XorLogic::xor(&read(a)?, &read(b)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellMode;

    fn device() -> FlashDevice {
        FlashDevice::new(Geometry::tiny(), TimingParams::default())
    }

    fn page0() -> PageAddr {
        PageAddr::new(0, 0, 0, 0, 0)
    }

    #[test]
    fn program_then_read_roundtrips_data_and_oob() {
        let mut dev = device();
        let data = vec![0x3C; 4096];
        let oob = vec![0x11; 64];
        dev.program_page(page0(), &data, &oob, ProgramScheme::EnhancedSlc)
            .unwrap();
        let readout = dev.read_page(page0()).unwrap();
        assert_eq!(readout.data, data);
        assert_eq!(&readout.oob[..64], &oob[..]);
        assert_eq!(readout.bit_errors, 0);
        assert!(readout.latency > Nanos::ZERO);
    }

    #[test]
    fn reprogramming_without_erase_is_rejected() {
        let mut dev = device();
        let data = vec![1u8; 16];
        dev.program_page(page0(), &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        assert!(matches!(
            dev.program_page(page0(), &data, &[], ProgramScheme::EnhancedSlc),
            Err(NandError::PageAlreadyProgrammed(_))
        ));
        dev.erase_block(page0().block_addr()).unwrap();
        dev.program_page(page0(), &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        assert_eq!(dev.erase_count(page0().block_addr()).unwrap(), 1);
    }

    #[test]
    fn reading_unprogrammed_page_fails() {
        let mut dev = device();
        assert!(matches!(
            dev.read_page(page0()),
            Err(NandError::PageNotProgrammed(_))
        ));
    }

    #[test]
    fn oversized_payloads_are_rejected() {
        let mut dev = device();
        let too_big = vec![0u8; 4097];
        assert!(matches!(
            dev.program_page(page0(), &too_big, &[], ProgramScheme::EnhancedSlc),
            Err(NandError::DataTooLarge { .. })
        ));
        let oob_too_big = vec![0u8; 257];
        assert!(matches!(
            dev.program_page(
                page0(),
                &[0u8; 16],
                &oob_too_big,
                ProgramScheme::EnhancedSlc
            ),
            Err(NandError::OobTooLarge { .. })
        ));
    }

    #[test]
    fn in_plane_distance_flow_computes_hamming_distances() {
        let mut dev = device();
        // 32-byte binary embeddings, 128 per 4 KB page.
        let emb_bytes = 32usize;
        let mut page = Vec::with_capacity(4096);
        for i in 0..(4096 / emb_bytes) {
            // Embedding i = i-th byte pattern.
            page.extend(std::iter::repeat_n((i % 256) as u8, emb_bytes));
        }
        dev.program_page(page0(), &page, &[], ProgramScheme::EnhancedSlc)
            .unwrap();

        let query = vec![0u8; emb_bytes];
        dev.input_broadcast(0, 0, &query, true).unwrap();
        dev.sense_page(page0()).unwrap();
        dev.xor_latches(page0().plane_addr()).unwrap();
        let (counts, _) = dev
            .count_fail_bits(page0().plane_addr(), emb_bytes)
            .unwrap();
        assert_eq!(counts.len(), 4096 / emb_bytes);
        // Against an all-zero query the Hamming distance of embedding i is
        // popcount(i) * emb_bytes.
        for (i, &count) in counts.iter().enumerate() {
            let expected = (i as u8).count_ones() * emb_bytes as u32;
            assert_eq!(count, expected, "embedding {i}");
        }
        let (passes, _) = dev.pass_fail_check(&counts, 32);
        assert_eq!(passes.len(), counts.len());
        assert!(passes[0], "identical embedding must pass any filter");
    }

    #[test]
    fn broadcast_reaches_all_planes_of_a_die() {
        let mut dev = device();
        dev.input_broadcast(1, 1, &[0xEE; 64], false).unwrap();
        for plane in 0..dev.geometry().planes_per_die {
            let buf = dev.page_buffer(PlaneAddr::new(1, 1, plane)).unwrap();
            assert!(buf.cache().unwrap().iter().all(|&b| b == 0xEE));
        }
    }

    #[test]
    fn mpibc_is_cheaper_but_functionally_identical() {
        let mut with = device();
        let mut without = device();
        let t_with = with.input_broadcast(0, 0, &[1u8; 128], true).unwrap();
        let t_without = without.input_broadcast(0, 0, &[1u8; 128], false).unwrap();
        assert!(t_with < t_without);
        for plane in 0..with.geometry().planes_per_die {
            let a = with
                .page_buffer(PlaneAddr::new(0, 0, plane))
                .unwrap()
                .cache()
                .unwrap()
                .to_vec();
            let b = without
                .page_buffer(PlaneAddr::new(0, 0, plane))
                .unwrap()
                .cache()
                .unwrap()
                .to_vec();
            assert_eq!(a, b);
        }
    }

    /// The cache latch of every plane, in plane-index order (`None` for an
    /// empty latch).
    fn cache_latches(dev: &FlashDevice) -> Vec<Option<Vec<u8>>> {
        (0..dev.geometry().total_planes())
            .map(|i| {
                let addr = dev.geometry().plane_at(i);
                dev.page_buffer(addr).unwrap().cache().map(<[u8]>::to_vec)
            })
            .collect()
    }

    /// A page of `payload` copies, built byte by byte.
    fn tiled(payload: &[u8], page_size: usize) -> Vec<u8> {
        (0..page_size).map(|i| payload[i % payload.len()]).collect()
    }

    #[test]
    fn device_wide_broadcast_tiles_the_payload_into_every_plane() {
        let mut dev = device();
        let payload: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37) ^ 0x5C).collect();
        dev.input_broadcast_all(&payload, true).unwrap();
        let expected = tiled(&payload, dev.geometry().page_size_bytes);
        for (i, cache) in cache_latches(&dev).into_iter().enumerate() {
            assert_eq!(cache.as_deref(), Some(&expected[..]), "plane {i}");
        }
    }

    #[test]
    fn device_wide_broadcast_counts_and_prices_one_broadcast_per_die() {
        let payload = [0xA7u8; 128];
        for multi_plane in [true, false] {
            let mut all = device();
            let mut per_die = device();
            let t_all = all.input_broadcast_all(&payload, multi_plane).unwrap();
            let g = *per_die.geometry();
            let mut t_die = Nanos::ZERO;
            for channel in 0..g.channels {
                for die in 0..g.dies_per_channel {
                    t_die = per_die
                        .input_broadcast(channel, die, &payload, multi_plane)
                        .unwrap();
                }
            }
            assert_eq!(all.stats(), per_die.stats(), "MPIBC {multi_plane}");
            assert_eq!(
                *all.stats(),
                FlashStats::input_broadcast(
                    g.total_dies(),
                    g.planes_per_die,
                    payload.len(),
                    multi_plane
                )
            );
            assert_eq!(t_all, t_die * g.dies_per_channel as u64);
            assert_eq!(cache_latches(&all), cache_latches(&per_die));
        }
    }

    #[test]
    fn cache_writes_replace_the_shared_image_of_one_plane_only() {
        let mut dev = device();
        let page_size = dev.geometry().page_size_bytes;
        let query = [0x3Cu8; 32];
        dev.input_broadcast_all(&query, true).unwrap();
        let sensed = PageAddr::new(1, 0, 1, 0, 0);
        let page: Vec<u8> = (0..page_size).map(|i| (i % 251) as u8).collect();
        dev.program_page(sensed, &page, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.sense_page(sensed).unwrap();
        dev.promote_sensing_to_cache(sensed.plane_addr()).unwrap();

        let promoted = dev.geometry().plane_index(sensed.plane_addr());
        let broadcast = tiled(&query, page_size);
        for (i, cache) in cache_latches(&dev).into_iter().enumerate() {
            let expected = if i == promoted { &page } else { &broadcast };
            assert_eq!(cache.as_deref(), Some(&expected[..]), "plane {i}");
        }

        // A new broadcast to one die replaces that die's images and leaves
        // the rest, including the promoted page, as they were.
        let next = [0xC3u8; 64];
        dev.input_broadcast(0, 1, &next, false).unwrap();
        let rebroadcast = tiled(&next, page_size);
        for (i, cache) in cache_latches(&dev).into_iter().enumerate() {
            let addr = dev.geometry().plane_at(i);
            let expected = if (addr.channel, addr.die) == (0, 1) {
                &rebroadcast
            } else if i == promoted {
                &page
            } else {
                &broadcast
            };
            assert_eq!(cache.as_deref(), Some(&expected[..]), "plane {i}");
        }

        // A new device-wide broadcast replaces every image.
        dev.input_broadcast_all(&next, true).unwrap();
        for (i, cache) in cache_latches(&dev).into_iter().enumerate() {
            assert_eq!(cache.as_deref(), Some(&rebroadcast[..]), "plane {i}");
        }
    }

    #[test]
    fn invalid_broadcast_payload_changes_no_latch() {
        let mut dev = device();
        let fresh = dev.clone();
        let page_size = dev.geometry().page_size_bytes;
        for payload in [&[][..], &[1u8; 100][..]] {
            for result in [
                dev.input_broadcast_all(payload, true),
                dev.input_broadcast(0, 0, payload, true),
            ] {
                assert_eq!(
                    result,
                    Err(NandError::InvalidBroadcastPayload {
                        payload_len: payload.len(),
                        page_size,
                    })
                );
            }
        }
        assert_eq!(dev, fresh, "empty latches stay empty, nothing counted");

        dev.input_broadcast_all(&[9u8; 16], true).unwrap();
        let before = dev.clone();
        assert!(dev.input_broadcast_all(&[1u8; 48], true).is_err());
        assert!(dev.input_broadcast(1, 1, &[], false).is_err());
        assert_eq!(dev, before, "a failed broadcast keeps the previous images");
    }

    #[test]
    fn tlc_reads_inject_errors_esp_reads_do_not() {
        let geometry = Geometry::tiny();
        let mut dev = FlashDevice::with_reliability(
            geometry,
            TimingParams::default(),
            ReliabilityModel { ber_scale: 1e3 },
            7,
        );
        let data = vec![0u8; 4096];
        let tlc_addr = page0();
        let esp_addr = PageAddr::new(0, 0, 0, 0, 1);
        dev.program_page(tlc_addr, &data, &[], ProgramScheme::Ispp(CellMode::Tlc))
            .unwrap();
        dev.program_page(esp_addr, &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        let mut tlc_errors = 0usize;
        for _ in 0..5 {
            tlc_errors += dev.read_page(tlc_addr).unwrap().bit_errors;
            assert_eq!(dev.read_page(esp_addr).unwrap().bit_errors, 0);
        }
        assert!(tlc_errors > 0, "scaled TLC BER should corrupt some reads");
        assert!(dev.stats().injected_bit_errors > 0);
    }

    #[test]
    fn esp_reads_are_faster_than_tlc_reads() {
        let mut dev = device();
        let data = vec![0u8; 256];
        let esp = PageAddr::new(0, 0, 0, 0, 0);
        let tlc = PageAddr::new(0, 0, 0, 0, 1);
        dev.program_page(esp, &data, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.program_page(tlc, &data, &[], ProgramScheme::Ispp(CellMode::Tlc))
            .unwrap();
        let t_esp = dev.read_page(esp).unwrap().latency;
        let t_tlc = dev.read_page(tlc).unwrap().latency;
        assert!(t_esp < t_tlc);
    }

    #[test]
    fn stats_track_operations() {
        let mut dev = device();
        let before = *dev.stats();
        dev.program_page(page0(), &[1u8; 128], &[2u8; 8], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.read_page(page0()).unwrap();
        dev.read_oob(page0()).unwrap();
        dev.erase_block(page0().block_addr()).unwrap();
        let delta = dev.stats().delta_since(&before);
        assert_eq!(delta.page_programs, 1);
        assert_eq!(delta.page_reads, 2);
        assert_eq!(delta.block_erases, 1);
        assert!(delta.bytes_to_controller > 0);
        assert!(delta.bytes_from_controller > 0);
        dev.reset_stats();
        assert_eq!(dev.stats().page_reads, 0);
    }

    #[test]
    fn xor_pages_matches_manual_xor() {
        let mut dev = device();
        let a_addr = PageAddr::new(0, 0, 0, 0, 0);
        let b_addr = PageAddr::new(0, 0, 0, 0, 1);
        let a = vec![0b1111_0000u8; 4096];
        let b = vec![0b1010_1010u8; 4096];
        dev.program_page(a_addr, &a, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.program_page(b_addr, &b, &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        let x = dev.xor_pages(a_addr, b_addr).unwrap();
        assert!(x.iter().all(|&v| v == 0b0101_1010));
    }

    #[test]
    fn read_page_cache_mode_frees_sensing_latch() {
        let mut dev = device();
        dev.program_page(page0(), &[9u8; 64], &[], ProgramScheme::EnhancedSlc)
            .unwrap();
        dev.sense_page(page0()).unwrap();
        dev.promote_sensing_to_cache(page0().plane_addr()).unwrap();
        let buf = dev.page_buffer(page0().plane_addr()).unwrap();
        assert!(buf.sensing().is_none());
        assert_eq!(buf.cache().unwrap()[0], 9);
    }
}
