//! Wafer configuration and the loss model constants tying geometry to the
//! physical layer.

use desim::fnv::Fnv;
use phy::mzi::MziParams;
use phy::stitch::StitchModel;
use phy::wdm::WdmGrid;

/// Static description of one LIGHTPATH wafer.
#[derive(Debug, Clone)]
pub struct WaferConfig {
    /// Grid rows. The commercial part is 32 tiles; default 4×8.
    pub rows: u8,
    /// Grid columns.
    pub cols: u8,
    /// Center-to-center tile pitch, centimeters. The prototype wafer is
    /// 200 mm × 200 mm (Fig 1); 32 tiles on a 4×8 grid gives a pitch of a
    /// few centimeters — default 2.5 cm.
    pub tile_pitch_cm: f64,
    /// Waveguide-bus capacity per inter-tile edge. The paper reports over
    /// 10,000 waveguides per tile at a 3 µm pitch (Fig 4).
    pub waveguides_per_edge: u32,
    /// Fiber attach points per wafer-edge tile, for inter-wafer links.
    pub fibers_per_edge_tile: u32,
    /// WDM channel plan of every tile (16 λ × 224 Gb/s by default).
    pub wdm: WdmGrid,
    /// MZI switch parameters (τ calibrated to 3.7 µs reconfiguration).
    pub mzi: MziParams,
    /// Reticle stitch loss model for inter-tile boundaries.
    pub stitch: StitchModel,
    /// Waveguide propagation loss, dB/cm. LIGHTPATH's hybrid CMOS photonic
    /// process uses low-loss guides; 0.1 dB/cm keeps cross-wafer budgets
    /// closing, consistent with the paper routing across the full wafer.
    pub propagation_loss_db_per_cm: f64,
    /// Extra waveguide crossings incurred per intermediate tile traversed
    /// (a circuit passing straight through a tile crosses its perpendicular
    /// bus; Fig 2b marks these crossings).
    pub crossings_per_through_tile: u32,
    /// Extra crossings per 90° turn (entering the perpendicular bus plane).
    pub crossings_per_turn: u32,
    /// Crosstalk penalty per co-propagating circuit on a shared bus, dB.
    /// At the 3 µm waveguide pitch the coupling is weak; the penalty only
    /// matters when thousands of circuits share a bus.
    pub crosstalk_per_cochannel_db: f64,
    /// Seed for sampling the fabricated per-boundary stitch losses.
    pub fab_seed: u64,
}

impl Default for WaferConfig {
    fn default() -> Self {
        WaferConfig {
            rows: 4,
            cols: 8,
            tile_pitch_cm: 2.5,
            waveguides_per_edge: 10_000,
            fibers_per_edge_tile: 16,
            wdm: WdmGrid::default(),
            mzi: MziParams::default(),
            stitch: StitchModel::default(),
            propagation_loss_db_per_cm: 0.1,
            crossings_per_through_tile: 1,
            crossings_per_turn: 1,
            crosstalk_per_cochannel_db: 0.002,
            fab_seed: 0xC0FFEE,
        }
    }
}

impl WaferConfig {
    /// Validate the configuration; panics with a description on error.
    pub fn validated(self) -> Self {
        assert!(self.rows >= 1 && self.cols >= 1, "grid must be non-empty");
        assert!(
            self.rows as usize * self.cols as usize <= 256,
            "grids beyond 256 tiles are not supported"
        );
        assert!(self.tile_pitch_cm > 0.0, "pitch must be positive");
        assert!(self.waveguides_per_edge > 0, "need at least one waveguide");
        assert!(
            self.propagation_loss_db_per_cm >= 0.0,
            "propagation loss must be non-negative"
        );
        self
    }

    /// FNV-1a digest of every config field a router or link budget reads.
    /// Two wafers with equal signatures fabricate identical stitch maps
    /// (same `fab_seed`), so a plan captured on one replays on the other.
    pub fn signature(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.rows as u64)
            .write_u64(self.cols as u64)
            .write_f64(self.tile_pitch_cm)
            .write_u64(self.waveguides_per_edge as u64)
            .write_u64(self.fibers_per_edge_tile as u64)
            .write_u64(self.wdm.channels as u64)
            .write_f64(self.wdm.start_nm)
            .write_f64(self.wdm.spacing_nm)
            .write_f64(self.wdm.rate.0)
            .write_f64(self.mzi.insertion_loss_db)
            .write_f64(self.stitch.mode_radius_um)
            .write_f64(self.stitch.overlay_sigma_um)
            .write_f64(self.stitch.base_loss_db)
            .write_f64(self.propagation_loss_db_per_cm)
            .write_u64(self.crossings_per_through_tile as u64)
            .write_u64(self.crossings_per_turn as u64)
            .write_f64(self.crosstalk_per_cochannel_db)
            .write_u64(self.fab_seed);
        h.finish()
    }

    /// Number of tiles on the wafer.
    pub fn tiles(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// The 32-tile configuration the paper describes.
    pub fn lightpath_32() -> Self {
        WaferConfig::default()
    }

    /// A small 2×4 wafer matching Fig 2c, handy for tests and examples.
    pub fn fig2c_2x4() -> Self {
        WaferConfig {
            rows: 2,
            cols: 4,
            ..WaferConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_32_tile_part() {
        let c = WaferConfig::default().validated();
        assert_eq!(c.tiles(), 32);
        assert_eq!(c.wdm.channels, 16);
        assert_eq!(c.waveguides_per_edge, 10_000);
    }

    #[test]
    fn fig2c_has_8_tiles() {
        assert_eq!(WaferConfig::fig2c_2x4().validated().tiles(), 8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_rejected() {
        WaferConfig {
            rows: 0,
            ..WaferConfig::default()
        }
        .validated();
    }
}
