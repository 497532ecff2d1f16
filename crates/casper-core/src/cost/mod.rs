//! The block-access cost model of §4.4 and its verification helpers (§4.5).

mod constants;
mod model;
mod terms;
mod verify;

pub use constants::CostConstants;
pub use model::{
    bck_read_closed, bck_read_literal, cost_of_boundaries, cost_of_segmentation, fwd_read_closed,
    fwd_read_literal, trail_parts, OpCostBreakdown,
};
pub use terms::BlockTerms;
pub use verify::{predicted_point_access, predicted_range_access, RangePartKind, ScanAccess};
