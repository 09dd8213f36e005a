//! QoS classes and aggregate rate parameters.
//!
//! Magma's subscriber schema carries the union of QoS capabilities across
//! radio technologies (§3.1): LTE QCI classes, 5G 5QI (richer), and WiFi
//! (best-effort only). The [`QosCaps`] type records what a given access
//! technology can express, so policies degrade gracefully.

use magma_wire::WireError;
use serde::{Deserialize, Serialize};

/// LTE QoS Class Identifier (TS 23.203 subset). 5G 5QI values map onto the
/// same semantics for our purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Qci {
    /// Conversational voice (GBR).
    ConversationalVoice,
    /// Real-time video (GBR).
    ConversationalVideo,
    /// Buffered streaming / TCP default (non-GBR). The default bearer.
    Default,
    /// Low-priority background.
    Background,
}

impl Qci {
    /// 3GPP numeric value.
    pub fn value(&self) -> u8 {
        match self {
            Qci::ConversationalVoice => 1,
            Qci::ConversationalVideo => 2,
            Qci::Default => 9,
            Qci::Background => 8,
        }
    }

    /// Inverse of [`value`](Self::value), for state codecs.
    pub fn from_value(v: u8) -> Result<Qci, WireError> {
        match v {
            1 => Ok(Qci::ConversationalVoice),
            2 => Ok(Qci::ConversationalVideo),
            9 => Ok(Qci::Default),
            8 => Ok(Qci::Background),
            v => Err(WireError::BadValue {
                field: "qci",
                value: v as u64,
            }),
        }
    }

    pub fn is_gbr(&self) -> bool {
        matches!(self, Qci::ConversationalVoice | Qci::ConversationalVideo)
    }

    /// Scheduling priority: lower is served first.
    pub fn priority(&self) -> u8 {
        match self {
            Qci::ConversationalVoice => 2,
            Qci::ConversationalVideo => 4,
            Qci::Background => 8,
            Qci::Default => 9,
        }
    }
}

/// Aggregate Maximum Bit Rate for a subscriber, kbps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ambr {
    pub dl_kbps: u32,
    pub ul_kbps: u32,
}

impl Ambr {
    pub const UNLIMITED: Ambr = Ambr {
        dl_kbps: u32::MAX,
        ul_kbps: u32::MAX,
    };

    pub fn new(dl_kbps: u32, ul_kbps: u32) -> Self {
        Ambr { dl_kbps, ul_kbps }
    }

    pub fn dl_bps(&self) -> u64 {
        self.dl_kbps as u64 * 1000
    }

    pub fn ul_bps(&self) -> u64 {
        self.ul_kbps as u64 * 1000
    }
}

/// What a radio access technology can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosCaps {
    /// Supports guaranteed-bit-rate bearers.
    pub gbr: bool,
    /// Supports per-flow rate limits (vs only per-user).
    pub per_flow_limits: bool,
    /// Supports QCI/5QI class differentiation.
    pub classes: bool,
}

impl QosCaps {
    pub fn lte() -> Self {
        QosCaps {
            gbr: true,
            per_flow_limits: true,
            classes: true,
        }
    }

    /// 5G expresses strictly more than LTE; for our model the caps are the
    /// same shape.
    pub fn nr5g() -> Self {
        QosCaps {
            gbr: true,
            per_flow_limits: true,
            classes: true,
        }
    }

    pub fn wifi() -> Self {
        QosCaps {
            gbr: false,
            per_flow_limits: false,
            classes: false,
        }
    }

    /// Clamp a requested QCI to what this access type supports.
    pub fn clamp_qci(&self, requested: Qci) -> Qci {
        if self.classes {
            requested
        } else {
            Qci::Default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qci_values_and_gbr() {
        assert_eq!(Qci::Default.value(), 9);
        assert!(Qci::ConversationalVoice.is_gbr());
        assert!(!Qci::Default.is_gbr());
        assert!(Qci::ConversationalVoice.priority() < Qci::Default.priority());
    }

    #[test]
    fn wifi_clamps_to_default() {
        assert_eq!(
            QosCaps::wifi().clamp_qci(Qci::ConversationalVoice),
            Qci::Default
        );
        assert_eq!(
            QosCaps::lte().clamp_qci(Qci::ConversationalVoice),
            Qci::ConversationalVoice
        );
    }

    #[test]
    fn ambr_conversions() {
        let a = Ambr::new(10_000, 2_000);
        assert_eq!(a.dl_bps(), 10_000_000);
        assert_eq!(a.ul_bps(), 2_000_000);
    }
}
