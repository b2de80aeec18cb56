//! Value-level protocol selection for experiment sweeps.

use crate::{ir, Protocol};
use std::fmt;
use std::sync::OnceLock;

/// Names one of the built-in coherence protocols; used to configure
/// machines and to sweep protocols in experiments.
///
/// # Examples
///
/// ```
/// use decache_core::ProtocolKind;
///
/// let protocol = ProtocolKind::Rwb.build();
/// assert_eq!(protocol.name(), "RWB");
/// for kind in ProtocolKind::ALL {
///     let _ = kind.build();
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The RB scheme (Section 3).
    Rb,
    /// RB with read broadcasting disabled (ablation A3).
    RbNoBroadcast,
    /// The RWB scheme with the paper's default threshold `k = 2`
    /// (Section 5).
    Rwb,
    /// RWB with an explicit locality threshold (footnote 6; ablation A1).
    RwbThreshold(u8),
    /// Goodman's write-once baseline.
    WriteOnce,
    /// Plain write-through-invalidate baseline.
    WriteThrough,
    /// The MESI protocol ([`crate::ir::mesi`]): a table like the rest,
    /// with a guarded read-miss fill and no dedicated engine code.
    Mesi,
}

impl ProtocolKind {
    /// The four headline protocols compared by experiment E13.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Rb,
        ProtocolKind::Rwb,
        ProtocolKind::WriteOnce,
        ProtocolKind::WriteThrough,
    ];

    /// Instantiates the protocol: its rule table ([`ir::table`]),
    /// lowered for execution. Each kind is lowered once per process and
    /// cloned from then on, so building many small machines does not
    /// rebuild the same table.
    ///
    /// # Panics
    ///
    /// Panics if a [`ProtocolKind::RwbThreshold`] value is outside
    /// [`ir::RWB_THRESHOLDS`].
    pub fn build(self) -> Protocol {
        static LOWERED: [OnceLock<Protocol>; 14] = [const { OnceLock::new() }; 14];
        let slot = match self {
            ProtocolKind::Rb => 0,
            ProtocolKind::RbNoBroadcast => 1,
            ProtocolKind::Rwb => 2,
            ProtocolKind::RwbThreshold(k) if ir::RWB_THRESHOLDS.contains(&k) => 2 + usize::from(k),
            // Out of range: `ir::rwb` panics with the accepted range.
            ProtocolKind::RwbThreshold(_) => return Protocol::new(ir::table(self)),
            ProtocolKind::WriteOnce => 11,
            ProtocolKind::WriteThrough => 12,
            ProtocolKind::Mesi => 13,
        };
        LOWERED[slot]
            .get_or_init(|| Protocol::new(ir::table(self)))
            .clone()
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Delegate to the table so names stay in one place.
        write!(f, "{}", self.build().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_the_named_protocol() {
        assert_eq!(ProtocolKind::Rb.build().name(), "RB");
        assert_eq!(
            ProtocolKind::RbNoBroadcast.build().name(),
            "RB-no-broadcast"
        );
        assert_eq!(ProtocolKind::Rwb.build().name(), "RWB");
        assert_eq!(ProtocolKind::RwbThreshold(3).build().name(), "RWB(k=3)");
        assert_eq!(ProtocolKind::WriteOnce.build().name(), "write-once");
        assert_eq!(ProtocolKind::WriteThrough.build().name(), "write-through");
        assert_eq!(ProtocolKind::Mesi.build().name(), "MESI");
    }

    #[test]
    fn display_matches_protocol_name() {
        for kind in ProtocolKind::ALL {
            assert_eq!(kind.to_string(), kind.build().name());
        }
    }

    #[test]
    fn all_contains_distinct_protocols() {
        let names: std::collections::HashSet<String> = ProtocolKind::ALL
            .iter()
            .map(|k| k.build().name().to_owned())
            .collect();
        assert_eq!(names.len(), ProtocolKind::ALL.len());
    }
}
